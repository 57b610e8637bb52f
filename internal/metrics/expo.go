package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Exposition writes the Prometheus text exposition format (version
// 0.0.4): one HELP/TYPE header per family followed by its samples.
// Durations are exposed in seconds, per Prometheus convention. Write
// errors stick: subsequent calls are no-ops and Err reports the first
// failure.
type Exposition struct {
	w   io.Writer
	err error
}

// NewExposition returns an exposition writer over w.
func NewExposition(w io.Writer) *Exposition { return &Exposition{w: w} }

// Err returns the first write error, if any.
func (e *Exposition) Err() error { return e.err }

func (e *Exposition) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// Family writes the HELP/TYPE header for a metric family. typ is
// "counter", "gauge" or "histogram".
func (e *Exposition) Family(name, help, typ string) {
	e.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Value writes one sample. labels is either empty or a pre-rendered
// label body such as `stage="parse"`.
func (e *Exposition) Value(name, labels string, v float64) { e.sample(name, labels, fmtFloat(v)) }

// Int is Value for integer-valued samples.
func (e *Exposition) Int(name, labels string, v int64) {
	e.sample(name, labels, strconv.FormatInt(v, 10))
}

func (e *Exposition) sample(name, labels, v string) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	e.printf("%s%s %s\n", name, labels, v)
}

// Histogram writes a histogram family member: cumulative buckets with
// upper bounds in seconds, then _sum (seconds) and _count. labels may be
// empty; the le label is appended to it.
func (e *Exposition) Histogram(name, labels string, s HistSnapshot) {
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += s.Buckets[i]
		le := "+Inf"
		if i < NumBuckets-1 {
			le = fmtFloat(BucketUpperNanos(i) / 1e9)
		}
		e.sample(name+"_bucket", joinLabels(labels, `le="`+le+`"`), strconv.FormatUint(cum, 10))
	}
	e.Value(name+"_sum", labels, float64(s.SumNanos)/1e9)
	e.sample(name+"_count", labels, strconv.FormatUint(s.Count, 10))
}

// fmtFloat renders a float the way Prometheus clients expect: shortest
// representation that round-trips.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// EscapeLabelValue escapes a label value per the Prometheus 0.0.4 text
// format: backslash, double-quote and newline become \\, \" and \n.
// These are the only three escapes the format defines — Go's %q is not
// a substitute (it escapes tabs and non-ASCII in ways scrapers reject).
func EscapeLabelValue(s string) string { return labelEscaper.Replace(s) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Label renders one name="value" label pair with the value escaped,
// ready to pass (possibly comma-joined with others) as the labels
// argument of Value, Int or Histogram.
func Label(name, value string) string {
	return name + `="` + EscapeLabelValue(value) + `"`
}
