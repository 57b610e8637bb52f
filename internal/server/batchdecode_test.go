package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// marshalBatch is a /publish/batch body as the benchmark and most clients
// build it: json.Marshal, which escapes every <, > and & with a \u escape.
func marshalBatch(docs ...string) string {
	body, err := json.Marshal(struct {
		Documents []string `json:"documents"`
	}{docs})
	if err != nil {
		panic(err)
	}
	return string(body)
}

// u spells the JSON escapes of the given UTF-16 code units, as hex.
func u(units ...string) string {
	var s string
	for _, h := range units {
		s += "\\u" + h
	}
	return s
}

// batchBodies are the request bodies both tests below run: the canonical
// shape the one-pass decoder takes (fast), and the bodies it must leave to
// encoding/json.
var batchBodies = []struct {
	name string
	body string
	fast bool
}{
	{"marshaled", marshalBatch(`<a k="1">x &amp; y</a>`, "<b/>", "<a><b/></a>"), true},
	{"every escape", `{"documents":["<a>\"\\\/\b\f\n\r\t` + u("0041", "00e9", "4E2D", "003c", "002f", "003e", "fffd") + `</a>","<a/>"]}`, true},
	{"surrogate pair", `{"documents":["<a>` + u("d83d", "de00") + `</a>"]}`, true},
	{"raw UTF-8", "{\"documents\":[\"<a>\xc3\xa9\xe4\xb8\xad\xf0\x9f\x98\x80\xef\xbf\xbd</a>\"]}", true},
	{"whitespace everywhere", " \t\n{ \"documents\" :\r[ \"<a/>\" ,\n\"<b/>\" ] } \r\n", true},
	{"empty array", `{"documents":[]}`, true},
	{"empty string", `{"documents":["","<a/>"]}`, true},
	{"NUL escape", `{"documents":["<a>` + u("0000") + `</a>"]}`, true},
	{"document over MaxDocumentBytes", marshalBatch("<a/>", "<a>"+strings.Repeat("x", 200)+"</a>"), true},
	{"lone high surrogate", `{"documents":["<a>` + u("d83d") + `</a>"]}`, false},
	{"lone low surrogate", `{"documents":["<a>` + u("de00") + `</a>"]}`, false},
	{"high surrogate before a non-surrogate", `{"documents":["<a>` + u("d83d", "0041") + `</a>"]}`, false},
	{"two high surrogates", `{"documents":["<a>` + u("d83d", "d83d", "de00") + `</a>"]}`, false},
	{"high surrogate ending the string", `{"documents":["` + u("d83d") + `"]}`, false},
	{"invalid UTF-8", "{\"documents\":[\"<a>\xff</a>\"]}", false},
	{"truncated UTF-8", "{\"documents\":[\"<a>\xe4\xb8</a>\"]}", false},
	{"UTF-8 surrogate", "{\"documents\":[\"<a>\xed\xa0\x80</a>\"]}", false},
	{"raw control byte", "{\"documents\":[\"<a>\x01</a>\"]}", false},
	{"raw newline", "{\"documents\":[\"<a>\n</a>\"]}", false},
	{"bad escape", `{"documents":["<a>\x</a>"]}`, false},
	{"short \\u escape", `{"documents":["<a>\u12"]}`, false},
	{"non-hex \\u escape", `{"documents":["<a>\u12g4</a>"]}`, false},
	{"capitalized key", `{"Documents":["<a/>"]}`, false},
	{"upper-case key", `{"DOCUMENTS":["<a/>"]}`, false},
	{"escaped key", `{"document` + u("0073") + `":["<a/>"]}`, false},
	{"unknown key after", `{"documents":["<a/>"],"x":1}`, false},
	{"unknown key before", `{"x":1,"documents":["<a/>"]}`, false},
	{"only an unknown key", `{"docs":["<a/>"]}`, false},
	{"duplicate key", `{"documents":["<a/>"],"documents":["<b/>","<a/>"]}`, false},
	{"null element", `{"documents":[null,"<a/>"]}`, false},
	{"null documents", `{"documents":null}`, false},
	{"number element", `{"documents":[1]}`, false},
	{"nested array", `{"documents":[["<a/>"]]}`, false},
	{"string documents", `{"documents":"<a/>"}`, false},
	{"trailing comma", `{"documents":["<a/>",]}`, false},
	{"trailing data", `{"documents":["<a/>"]}x`, false},
	{"second value", `{"documents":["<a/>"]} {"documents":["<b/>"]}`, false},
	{"byte order mark", "\xef\xbb\xbf{\"documents\":[\"<a/>\"]}", false},
	{"truncated in a string", `{"documents":["<a/`, false},
	{"truncated after a string", `{"documents":["<a/>"`, false},
	{"truncated before the brace", `{"documents":["<a/>"]`, false},
	{"truncated key", `{"docu`, false},
	{"backslash ending the body", `{"documents":["<a/>\`, false},
	{"open brace", `{`, false},
	{"empty body", ``, false},
	{"XML body", `<a/>`, false},
	{"array body", `["<a/>"]`, false},
	{"empty object", `{}`, false},
}

// batchBodyServer is the server the table runs against: two subscriptions,
// and a document bound small enough for one body to break it.
func batchBodyServer(t *testing.T) *Server {
	t.Helper()
	srv := New(Config{Workers: 2, MaxDocumentBytes: 128})
	if _, err := srv.Preload([]string{"//a", "/b"}); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestPublishBatchBodies posts every body of the table to /publish/batch
// and compares status and response bytes with the golden, which holds
// what the handler answered when encoding/json decoded every request. It
// also holds the one-pass decoder to the table's split between the bodies
// it takes and the ones it leaves to encoding/json.
func TestPublishBatchBodies(t *testing.T) {
	srv := batchBodyServer(t)
	var got strings.Builder
	for _, c := range batchBodies {
		rr := serve(srv, "POST", "/publish/batch", c.body)
		fmt.Fprintf(&got, "### %s\n%d\n%s", c.name, rr.Code, rr.Body)
		if _, ok := decodeDocuments([]byte(c.body)); ok != c.fast {
			t.Errorf("%s: one-pass decoder accepts = %v, want %v", c.name, ok, c.fast)
		}
	}
	checkGolden(t, "batch_bodies.golden", got.String())
}

// FuzzDecodeBatch holds the one-pass decoder to encoding/json: for any
// body it declines, or encoding/json accepts the body too and decodes the
// same documents, byte for byte. Every document it returns is exactly
// sized.
func FuzzDecodeBatch(f *testing.F) {
	for _, c := range batchBodies {
		f.Add([]byte(c.body))
	}
	// The markup escapes' edges: upper-case hex, one cut off by the end of
	// the body, one beside a surrogate pair, and the NUL escape.
	for _, body := range []string{
		`{"documents":["\u003Ca\u003E\u003c/a\u003e"]}`,
		`{"documents":["\u003`,
		`{"documents":["x\u0026\ud83d\ude00\u0026y\u003e"]}`,
		`{"documents":["\u0000\u003c\u0000"]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		docs, ok := decodeDocuments(body)
		if !ok {
			return
		}
		var req struct {
			Documents []string `json:"documents"`
		}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("one-pass decoder accepted %q, which encoding/json rejects: %v", body, err)
		}
		if len(docs) != len(req.Documents) {
			t.Fatalf("%q: %d documents, encoding/json decodes %d", body, len(docs), len(req.Documents))
		}
		for i, d := range docs {
			if !bytes.Equal(d, []byte(req.Documents[i])) {
				t.Fatalf("%q: document %d is %q, encoding/json decodes %q", body, i, d, req.Documents[i])
			}
			if cap(d) != len(d) {
				t.Fatalf("%q: document %d has capacity %d for %d bytes", body, i, cap(d), len(d))
			}
		}
	})
}
