package server

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"predfilter/internal/metrics"
)

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.Unmarshal([]byte(getText(t, url)), &out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return out
}

// sharedKeys calls f for every key path present in both a and b, down to
// the first non-object value on either side.
func sharedKeys(prefix string, a, b map[string]any, f func(key string, av, bv any)) {
	for k, av := range a {
		bv, ok := b[k]
		if !ok {
			continue
		}
		am, aObj := av.(map[string]any)
		bm, bObj := bv.(map[string]any)
		if aObj && bObj {
			sharedKeys(prefix+k+".", am, bm, f)
			continue
		}
		f(prefix+k, av, bv)
	}
}

// TestStatsVarsAgree: /stats and /debug/vars report every key they share
// with the same value. A panic recovered outside the HTTP layer (a stream
// worker's, stood in for by ObservePanic) counts on the engine only, so
// a surface reading the server's HTTP-only counter under the engine's
// key disagrees here.
func TestStatsVarsAgree(t *testing.T) {
	srv := New(scriptConfig(""))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	metricsScript(t, ts.URL)
	srv.eng.Metrics().ObservePanic()

	stats, vars := getJSON(t, ts.URL+"/stats"), getJSON(t, ts.URL+"/debug/vars")
	shared := 0
	sharedKeys("", stats, vars, func(key string, sv, vv any) {
		shared++
		if !reflect.DeepEqual(sv, vv) {
			t.Errorf("%s: /stats %v, /debug/vars %v", key, sv, vv)
		}
	})
	if shared < 10 {
		t.Fatalf("only %d shared keys: /stats %v, /debug/vars %v", shared, stats, vars)
	}
	if stats["panics_recovered"] != 1.0 || stats["server_panics_recovered"] != 0.0 {
		t.Fatalf("panics_recovered %v, server_panics_recovered %v; want 1 and 0",
			stats["panics_recovered"], stats["server_panics_recovered"])
	}
}

// surfaces is what one process served for one scrape.
type surfaces struct {
	fams  map[string]*metrics.Family
	types map[string]int // # TYPE lines per family
	json  map[metrics.Surface]map[string]any
}

func readSurfaces(t *testing.T, text string, json map[metrics.Surface]map[string]any) surfaces {
	t.Helper()
	if err := metrics.ValidateExposition(text); err != nil {
		t.Fatal(err)
	}
	parsed, err := metrics.ParseExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	sf := surfaces{fams: map[string]*metrics.Family{}, types: map[string]int{}, json: json}
	for _, f := range parsed {
		sf.fams[f.Name] = f
	}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			sf.types[strings.Fields(rest)[0]]++
		}
	}
	return sf
}

// lookup follows a dotted key through nested objects.
func lookup(obj map[string]any, key string) (any, bool) {
	path := strings.Split(key, ".")
	for _, k := range path[:len(path)-1] {
		obj, _ = obj[k].(map[string]any)
	}
	v, ok := obj[path[len(path)-1]]
	return v, ok
}

// checkRows holds one table against what was served: every present row
// is one family of its kind with samples carrying exactly its label keys,
// an absent row serves nothing, and a row's JSON value on each of its
// surfaces equals its exposition value (a histogram's count equals
// _count). It records the declared names and JSON keys in declared.
func checkRows[S any](t *testing.T, rows []metrics.Row[S], s *S, sf surfaces, declared map[string]bool, keys map[metrics.Surface][]string) {
	t.Helper()
	for _, r := range rows {
		present := r.When == nil || r.When(s)
		for _, on := range []metrics.Surface{metrics.OnStats, metrics.OnVars} {
			if r.On&on != 0 {
				keys[on] = append(keys[on], r.JSON)
			}
		}
		if r.Name == "" {
			for on, obj := range sf.json {
				if _, ok := lookup(obj, r.JSON); present && r.On&on != 0 && r.Skip == nil && !ok {
					t.Errorf("JSON-only key %s missing", r.JSON)
				}
			}
			continue
		}
		declared[r.Name] = true
		f := sf.fams[r.Name]
		if !present {
			if f != nil {
				t.Errorf("%s served while its row is absent", r.Name)
			}
			continue
		}
		if sf.types[r.Name] != 1 || f == nil || f.Type != r.Kind || len(f.Samples) == 0 {
			t.Errorf("%s: %d TYPE lines, family %+v; want one %s family with samples", r.Name, sf.types[r.Name], f, r.Kind)
			continue
		}
		for _, smp := range f.Samples {
			var keys []string
			key := r.JSON
			for _, lp := range smp.Labels {
				if lp.Name != "le" {
					keys = append(keys, lp.Name)
					key = strings.ReplaceAll(key, "{"+lp.Name+"}", lp.Value)
				}
			}
			if !reflect.DeepEqual(keys, r.Labels) && len(keys)+len(r.Labels) > 0 {
				t.Errorf("%s: sample labels %v, declared %v", smp.Name, keys, r.Labels)
			}
			if r.JSON == "" || (r.Kind == "histogram" && !strings.HasSuffix(smp.Name, "_count")) {
				continue
			}
			for on, obj := range sf.json {
				if r.On&on == 0 {
					continue
				}
				v, ok := lookup(obj, key)
				if h, isObj := v.(map[string]any); isObj {
					v = h["count"]
				}
				switch {
				case !ok && r.Skip == nil:
					t.Errorf("%s: JSON key %s missing", smp.Name, key)
				case ok && v != smp.Value:
					t.Errorf("%s: JSON %s = %v, exposition %v", smp.Name, key, v, smp.Value)
				}
			}
		}
	}
}

// checkUndeclared fails on any family or JSON key the tables do not
// declare.
func checkUndeclared(t *testing.T, sf surfaces, declared map[string]bool, keys map[metrics.Surface][]string) {
	t.Helper()
	for name := range sf.fams {
		if !declared[name] {
			t.Errorf("family %s is not declared", name)
		}
	}
	placeholder := regexp.MustCompile(`\\\{\w+\\\}`) // a quoted "{label}"
	for on, obj := range sf.json {
		var pats []string
		for _, k := range keys[on] {
			pats = append(pats, placeholder.ReplaceAllString(regexp.QuoteMeta(k), `[^.]+`))
		}
		re := regexp.MustCompile(`^(` + strings.Join(pats, "|") + `)$`)
		var walk func(prefix string, obj map[string]any)
		walk = func(prefix string, obj map[string]any) {
			for k, v := range obj {
				switch sub, isObj := v.(map[string]any); {
				case re.MatchString(prefix + k):
				case isObj:
					walk(prefix+k+".", sub)
				default:
					t.Errorf("JSON key %s%s is not declared", prefix, k)
				}
			}
		}
		walk("", obj)
	}
}

// TestMetricsDeclared: after the metrics script, every row of the
// server's table (the engine's rows, then its own) is on every surface it
// declares, with one value, and nothing else is served — with and without
// a durable store.
func TestMetricsDeclared(t *testing.T) {
	for _, state := range []bool{false, true} {
		name := map[bool]string{false: "memory", true: "state"}[state]
		t.Run(name, func(t *testing.T) {
			dir := ""
			if state {
				dir = t.TempDir()
			}
			srv, err := Open(scriptConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)
			metricsScript(t, ts.URL)
			sf := readSurfaces(t, getText(t, ts.URL+"/metrics"), map[metrics.Surface]map[string]any{
				metrics.OnStats: getJSON(t, ts.URL+"/stats"),
				metrics.OnVars:  getJSON(t, ts.URL+"/debug/vars"),
			})
			sc := srv.readScrape(0)
			declared, keys := map[string]bool{}, map[metrics.Surface][]string{}
			checkRows(t, metrics.EngineRows, &sc.eng, sf, declared, keys)
			checkRows(t, Rows, sc, sf, declared, keys)
			checkUndeclared(t, sf, declared, keys)
			if _, ok := sf.json[metrics.OnStats]["store"]; ok != state {
				t.Errorf("store object present = %v, want %v", ok, state)
			}
		})
	}
}
