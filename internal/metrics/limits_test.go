package metrics

import (
	"testing"

	"predfilter/internal/guard"
)

// Adding a guard.Kind without growing the trip counter array would
// silently drop its trips; NumLimitKinds follows guard.NumKinds, and this
// check keeps it that way.
func TestNumLimitKindsCoversGuard(t *testing.T) {
	if NumLimitKinds < int(guard.NumKinds) {
		t.Fatalf("metrics.NumLimitKinds = %d < guard.NumKinds = %d; grow the counter array",
			NumLimitKinds, guard.NumKinds)
	}
}

func TestObserveLimitTrip(t *testing.T) {
	var s Set
	s.ObserveLimitTrip(int(guard.Steps))
	s.ObserveLimitTrip(int(guard.Steps))
	s.ObserveLimitTrip(int(guard.Deadline))
	// Out-of-range kinds are clamped, not panicked on.
	s.ObserveLimitTrip(-1)
	s.ObserveLimitTrip(NumLimitKinds + 5)
	trips := s.Scrape().LimitTrips
	if trips[guard.Steps] != 2 || trips[guard.Deadline] != 1 {
		t.Fatalf("trips = %v", trips)
	}
	// nil receiver is the disabled-metrics fast path.
	var nilSet *Set
	nilSet.ObserveLimitTrip(int(guard.Steps))
	nilSet.ObservePanic()
}

func TestObservePanic(t *testing.T) {
	var s Set
	s.ObservePanic()
	s.ObservePanic()
	if got := s.Panics.Load(); got != 2 {
		t.Fatalf("Panics = %d, want 2", got)
	}
}
