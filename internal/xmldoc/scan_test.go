package xmldoc

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"predfilter/internal/guard"
)

// equivCases is shared by the table tests and the fuzz seed corpus, here
// and in the root package's FuzzMatchScanned: inputs chosen to hit the
// scanner's edges (accepted and rejected alike). On every one of them
// ModeAuto and ModeStd must agree.
var equivCases = loadCases("testdata/scan_cases.txt")

// loadCases reads a file of Go-quoted strings, one per line, with # comment
// lines.
func loadCases(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		c, err := strconv.Unquote(line)
		if err != nil {
			panic(fmt.Sprintf("%s: %s: %v", path, line, err))
		}
		out = append(out, c)
	}
	return out
}

// parseBoth parses data under both parser selections and fails the test on
// any accept/reject or structural divergence. It returns the ModeStd view.
func parseBoth(t testing.TB, data []byte, lim guard.Limits) (*Document, error) {
	t.Helper()
	ds, errS := ParseLimitsMode(data, lim, ModeAuto)
	dx, errX := ParseLimitsMode(data, lim, ModeStd)
	if (errS == nil) != (errX == nil) {
		t.Fatalf("accept/reject divergence on %q:\n  scan: %v\n  std:  %v", data, errS, errX)
	}
	if errS == nil && !reflect.DeepEqual(ds, dx) {
		t.Fatalf("document divergence on %q:\n  scan: %+v\n  std:  %+v", data, ds, dx)
	}
	return dx, errX
}

func TestScanEquivalenceTable(t *testing.T) {
	for _, in := range equivCases {
		parseBoth(t, []byte(in), guard.Limits{})
	}
}

func TestScanModeLimitsEquivalence(t *testing.T) {
	// Structural limits must trip identically (same kind, limit, got) on
	// both parser paths.
	deep := "<d><d><d><d><d><d>x</d></d></d></d></d></d>"
	wide := "<r><a/><b/><c/><e/></r>"
	cases := []struct {
		in  string
		lim guard.Limits
	}{
		{deep, guard.Limits{MaxDepth: 3}},
		{deep, guard.Limits{MaxDepth: 6}},
		{deep, guard.Limits{MaxDepth: 7}},
		{wide, guard.Limits{MaxPaths: 3}},
		{wide, guard.Limits{MaxPaths: 4}},
		{wide, guard.Limits{MaxTuples: 7}},
		{wide, guard.Limits{MaxTuples: 8}},
		{wide, guard.Limits{MaxDocBytes: 10}},
		{wide, guard.Limits{MaxDocBytes: int64(len(wide))}},
	}
	for _, c := range cases {
		_, errS := ParseLimitsMode([]byte(c.in), c.lim, ModeAuto)
		_, errX := ParseLimitsMode([]byte(c.in), c.lim, ModeStd)
		var leS, leX *guard.LimitError
		asS, asX := errors.As(errS, &leS), errors.As(errX, &leX)
		if asS != asX {
			t.Fatalf("limit divergence on %q %+v: scan=%v std=%v", c.in, c.lim, errS, errX)
		}
		if asS && (leS.Kind != leX.Kind || leS.Limit != leX.Limit || leS.Got != leX.Got) {
			t.Fatalf("limit detail divergence on %q %+v:\n  scan: %+v\n  std:  %+v", c.in, c.lim, leS, leX)
		}
	}
}

func TestScanFallbackProducesStdErrors(t *testing.T) {
	// A rejected document must surface encoding/xml's own error through
	// the fast path, because the fallback re-parse is authoritative.
	_, errS := ParseLimitsMode([]byte(`<a><b></a>`), guard.Limits{}, ModeAuto)
	_, errX := ParseLimitsMode([]byte(`<a><b></a>`), guard.Limits{}, ModeStd)
	if errS == nil || errX == nil {
		t.Fatalf("both must reject: scan=%v std=%v", errS, errX)
	}
	if errS.Error() != errX.Error() {
		t.Fatalf("error text diverges:\n  scan: %v\n  std:  %v", errS, errX)
	}
}

func TestScanAttrsNilWhenAbsent(t *testing.T) {
	d, err := ParseLimitsMode([]byte(`<a><b c="1"/></a>`), guard.Limits{}, ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	tup := d.Paths[0].Tuples
	if tup[0].Attrs != nil {
		t.Errorf("attr-less element has non-nil Attrs: %+v", tup[0].Attrs)
	}
	if v, ok := tup[1].Attr("c"); !ok || v != "1" {
		t.Errorf("attr lookup: %q %v", v, ok)
	}
}

// pathLog is a Visitor that renders every path it is handed, attributes
// included, while the path is still valid.
type pathLog struct {
	paths    []string
	restarts int
}

func (l *pathLog) Path(pub *Publication) { l.paths = append(l.paths, renderPath(pub)) }
func (l *pathLog) Restart()              { l.paths, l.restarts = l.paths[:0], l.restarts+1 }

func renderPath(pub *Publication) string {
	var b strings.Builder
	for _, t := range pub.Tuples {
		fmt.Fprintf(&b, "/%s#%d.%d@%d:%d", t.Tag, t.Pos, t.Occ, t.NodeID, t.ChildIdx)
		for _, a := range t.Attrs {
			fmt.Fprintf(&b, "[%s=%q]", a.Name, a.Value)
		}
	}
	return fmt.Sprintf("%d%s", pub.Length, b.String())
}

// TestScanVisitsParsePaths: Scan hands its visitor exactly the paths Parse
// collects, in order, with the same verdict. When
// the scanner emits paths and then stops on input outside its subset (the
// last cases), Restart comes before the fallback emits them all again.
func TestScanVisitsParsePaths(t *testing.T) {
	cases := append(equivCases[:len(equivCases):len(equivCases)],
		`<a x="1"><b y="&amp;"/><p:c xmlns:p="u" z="2"/></a>`, // namespaced last element: fallback accepts
		`<!DOCTYPE a><a><b/></a>`,                             // fallback before any path
		`<a><b/><c/></a><d/>`,                                 // trailing element: fallback rejects
		`<a><b/><c></d></a>`)                                  // mismatched end tag: fallback rejects
	for _, in := range cases {
		want, werr := ParseLimitsMode([]byte(in), guard.Limits{}, ModeAuto)
		var log pathLog
		st, err := Scan([]byte(in), guard.Limits{}, &log)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("%q: Scan err %v, Parse err %v", in, err, werr)
		}
		if st.FellBack != (log.restarts == 1) || log.restarts > 1 {
			t.Fatalf("%q: %d restarts, fell back %v", in, log.restarts, st.FellBack)
		}
		if err != nil {
			continue
		}
		var paths []string
		for i := range want.Paths {
			paths = append(paths, renderPath(&want.Paths[i]))
		}
		if !reflect.DeepEqual(log.paths, paths) {
			t.Fatalf("%q: visited\n  %q\nparsed\n  %q", in, log.paths, paths)
		}
		if st.Paths != len(want.Paths) || st.Elements != want.Elements || st.Bytes != int64(len(in)) {
			t.Fatalf("%q: %+v, want %d paths, %d elements, %d bytes", in, st, len(want.Paths), want.Elements, len(in))
		}
	}
}
