package xmldoc

import (
	"errors"
	"reflect"
	"testing"

	"predfilter/internal/guard"
)

func limitAs(err error, le **guard.LimitError) bool { return errors.As(err, le) }

// FuzzScanEquivalence is the differential oracle for the zero-copy
// scanner: on every input, the scanner path (ModeAuto, with its
// encoding/xml fallback) and the pure encoding/xml path (ModeStd) must
// agree — both reject, or both accept with deep-equal Documents — without
// limits and under tight ones. Because the fast path delegates every
// scanner rejection to encoding/xml, a divergence here means exactly one
// thing: the scanner accepted input it mis-parses, the one bug class the
// fallback cannot absorb.
func FuzzScanEquivalence(f *testing.F) {
	for _, s := range equivCases {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, errS := ParseLimitsMode(data, guard.Limits{}, ModeAuto)
		dx, errX := ParseLimitsMode(data, guard.Limits{}, ModeStd)
		if (errS == nil) != (errX == nil) {
			t.Fatalf("accept/reject divergence:\n  scan: %v\n  std:  %v", errS, errX)
		}
		if errS == nil && !reflect.DeepEqual(ds, dx) {
			t.Fatalf("document divergence:\n  scan: %+v\n  std:  %+v", ds, dx)
		}

		// Under tight structural limits both paths must trip identically.
		lim := guard.Limits{MaxDepth: 4, MaxPaths: 4, MaxTuples: 12, MaxDocBytes: 96}
		_, errS = ParseLimitsMode(data, lim, ModeAuto)
		_, errX = ParseLimitsMode(data, lim, ModeStd)
		var leS, leX *guard.LimitError
		if asS, asX := limitAs(errS, &leS), limitAs(errX, &leX); asS != asX {
			t.Fatalf("limit divergence: scan=%v std=%v", errS, errX)
		} else if asS && (leS.Kind != leX.Kind || leS.Limit != leX.Limit || leS.Got != leX.Got) {
			t.Fatalf("limit detail divergence:\n  scan: %+v\n  std:  %+v", leS, leX)
		}
		if (errS == nil) != (errX == nil) {
			t.Fatalf("limited accept/reject divergence:\n  scan: %v\n  std:  %v", errS, errX)
		}
	})
}
