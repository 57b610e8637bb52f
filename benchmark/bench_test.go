package main

import (
	"bufio"
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload, both passes, at smoke scale and checks
// that what the benchmark prints is exactly what BENCHMARK.json declares
// and that every response matched the oracle. It is the CI hook for the
// benchmark: it keeps the harness compiling and running against the tree
// it measures.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts xfserve processes; skipped under -short")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := loadDeclaration(root)
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if code := run([]string{"-scale", "smoke", "-seconds", "1.5", "-seed", "7"}, &out); code != 0 {
		t.Fatalf("benchmark exited %d\n%s", code, out.String())
	}

	want := map[string]bool{}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	// loadDeclaration has checked that BENCHMARK.json lists exactly the
	// workloads that are not extra; the report covers the extra ones too.
	for _, sp := range specs {
		if !nameOK.MatchString(sp.name) {
			t.Errorf("workload name %q is outside the allowed characters", sp.name)
		}
		for _, d := range append(append([]metricDecl{{Name: "failed_share"}}, decl.EndToEnd...), decl.PerLayer...) {
			if !nameOK.MatchString(d.Name) {
				t.Errorf("metric name %q is outside the allowed characters", d.Name)
			}
			want[sp.name+" "+d.Name] = true
		}
	}
	got := map[string]bool{}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		// A metric line is "<workload> <metric> <value> <unit> ...".
		if len(f) < 4 {
			continue
		}
		if _, isWorkload := specByName(f[0]); !isWorkload {
			continue
		}
		got[f[0]+" "+f[1]] = true
		if f[1] == "failed_share" && f[2] != "0" {
			t.Errorf("%s: failed_share is %s, want 0", f[0], f[2])
		}
	}
	for k := range want {
		if !got[k] {
			t.Errorf("declared in BENCHMARK.json but not printed: %s", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("printed but not declared in BENCHMARK.json: %s", k)
		}
	}
}
