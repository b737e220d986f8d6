// Package expose renders service counters in the Prometheus text
// exposition format, version 0.0.4 — the `text/plain; version=0.0.4`
// payload every mainstream scrape loop understands. It is deliberately
// tiny and pure-stdlib: a Registry of metric families collected at
// scrape time, plus a concurrent fixed-bucket Histogram instrument for
// the hot paths that must record observations cheaply.
//
// The serving layer (internal/serve) registers collectors that read its
// atomic counters directly, so a scrape never sorts anything; GET
// /metricsz on serve.Server renders the registry, and /statsz reads its
// feed-latency quantiles off the same histograms (SumViews, Quantile). The package also ships a strict Parse for the same
// format, used by cmd/ewload's end-of-run scrape and the CI smoke so a
// malformed exposition fails loudly instead of silently dropping
// series in a real scraper.
package expose

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Kind is a metric family's type as declared on its `# TYPE` line.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the TYPE-line spelling.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Label is one name="value" pair on a sample.
type Label struct {
	Name, Value string
}

// Point is one sample emitted by a collector. Counter and gauge points
// carry Value; histogram points carry Hist instead.
type Point struct {
	Labels []Label
	Value  float64
	Hist   *HistView
}

// Desc declares a metric family: its name, help text and kind.
type Desc struct {
	Name string
	Help string
	Kind Kind
}

// CollectorFunc produces a family's current samples at scrape time by
// calling emit once per sample. It must be safe for concurrent scrapes.
type CollectorFunc func(emit func(Point))

type family struct {
	desc    Desc
	collect CollectorFunc
}

// Registry holds metric families in registration order and renders them
// on demand. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family           // guarded by mu
	byName   map[string]struct{} // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]struct{})}
}

// Register adds a family. The name must be a valid metric name, unique
// within the registry, and the help text non-empty (the format requires
// a HELP line per family).
func (r *Registry) Register(d Desc, collect CollectorFunc) error {
	if !validMetricName(d.Name) {
		return fmt.Errorf("expose: invalid metric name %q", d.Name)
	}
	if d.Help == "" {
		return fmt.Errorf("expose: metric %s has empty help", d.Name)
	}
	if collect == nil {
		return fmt.Errorf("expose: metric %s has nil collector", d.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[d.Name]; dup {
		return fmt.Errorf("expose: duplicate metric name %q", d.Name)
	}
	r.byName[d.Name] = struct{}{}
	r.families = append(r.families, &family{desc: d, collect: collect})
	return nil
}

// MustRegister is Register, panicking on error — for the static
// registration blocks where a failure is a programming bug.
func (r *Registry) MustRegister(d Desc, collect CollectorFunc) {
	if err := r.Register(d, collect); err != nil {
		panic(err)
	}
}

// WriteText renders every family in registration order as Prometheus
// text format v0.0.4. Collectors run outside the registry lock, so a
// slow collector never blocks Register.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()

	// buf and pts are reused across families: after the first family the
	// encode path stops allocating.
	buf := make([]byte, 0, 1024)
	pts := make([]Point, 0, 16)
	emit := func(p Point) { pts = append(pts, p) }
	for _, f := range fams {
		pts = pts[:0]
		f.collect(emit)
		var err error
		buf, err = writeFamily(w, buf, f.desc, pts)
		if err != nil {
			return err
		}
	}
	return nil
}

// writeFamily renders one family's HELP/TYPE header and samples.
//
// ew:hotpath — this is the exposition encode loop, run for every family
// on every scrape; each sample line is appended into buf (grown once,
// reused across samples and families) and written out, so the loop body
// itself performs no allocation.
func writeFamily(w io.Writer, buf []byte, d Desc, pts []Point) ([]byte, error) {
	buf = appendHeader(buf[:0], d)
	if _, err := w.Write(buf); err != nil {
		return buf, err
	}
	for i := range pts {
		var perr error
		if d.Kind == KindHistogram {
			buf, perr = appendHistogram(buf[:0], d.Name, &pts[i])
		} else {
			buf, perr = appendScalar(buf[:0], d.Name, &pts[i])
		}
		if perr != nil {
			return buf, perr
		}
		if _, err := w.Write(buf); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// appendHeader renders the `# HELP` and `# TYPE` lines.
func appendHeader(buf []byte, d Desc) []byte {
	buf = append(buf, "# HELP "...)
	buf = append(buf, d.Name...)
	buf = append(buf, ' ')
	buf = appendEscapedHelp(buf, d.Help)
	buf = append(buf, "\n# TYPE "...)
	buf = append(buf, d.Name...)
	buf = append(buf, ' ')
	buf = append(buf, d.Kind.String()...)
	buf = append(buf, '\n')
	return buf
}

// appendScalar renders one counter/gauge sample line.
func appendScalar(buf []byte, name string, p *Point) ([]byte, error) {
	if p.Hist != nil {
		return buf, fmt.Errorf("expose: metric %s: histogram point on a %s family", name, "scalar")
	}
	var err error
	buf = append(buf, name...)
	if buf, err = appendLabels(buf, p.Labels, nil); err != nil {
		return buf, err
	}
	buf = append(buf, ' ')
	buf = appendValue(buf, p.Value)
	buf = append(buf, '\n')
	return buf, nil
}

// appendHistogram renders one histogram point: cumulative `_bucket`
// lines (ending at le="+Inf" = Count), then `_sum` and `_count`.
func appendHistogram(buf []byte, name string, p *Point) ([]byte, error) {
	h := p.Hist
	if h == nil {
		return buf, fmt.Errorf("expose: metric %s: histogram family emitted a scalar point", name)
	}
	if len(h.Cumulative) != len(h.UpperBounds) {
		return buf, fmt.Errorf("expose: metric %s: %d bucket counts for %d bounds",
			name, len(h.Cumulative), len(h.UpperBounds))
	}
	var err error
	le := make([]byte, 0, 24)
	for i, bound := range h.UpperBounds {
		le = appendValue(le[:0], bound)
		buf = append(buf, name...)
		buf = append(buf, "_bucket"...)
		if buf, err = appendLabels(buf, p.Labels, le); err != nil {
			return buf, err
		}
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, h.Cumulative[i], 10)
		buf = append(buf, '\n')
	}
	buf = append(buf, name...)
	buf = append(buf, "_bucket"...)
	if buf, err = appendLabels(buf, p.Labels, []byte("+Inf")); err != nil {
		return buf, err
	}
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, h.Count, 10)
	buf = append(buf, '\n')

	buf = append(buf, name...)
	buf = append(buf, "_sum"...)
	if buf, err = appendLabels(buf, p.Labels, nil); err != nil {
		return buf, err
	}
	buf = append(buf, ' ')
	buf = appendValue(buf, h.Sum)
	buf = append(buf, '\n')

	buf = append(buf, name...)
	buf = append(buf, "_count"...)
	if buf, err = appendLabels(buf, p.Labels, nil); err != nil {
		return buf, err
	}
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, h.Count, 10)
	buf = append(buf, '\n')
	return buf, nil
}

// appendLabels renders `{a="b",...}` (nothing for an empty set), with
// an optional trailing le bucket label. Label values are escaped per
// the format: backslash, double quote and newline.
func appendLabels(buf []byte, labels []Label, le []byte) ([]byte, error) {
	if len(labels) == 0 && le == nil {
		return buf, nil
	}
	buf = append(buf, '{')
	for i := range labels {
		if !validLabelName(labels[i].Name) {
			return buf, fmt.Errorf("expose: invalid label name %q", labels[i].Name)
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, labels[i].Name...)
		buf = append(buf, `="`...)
		buf = appendEscapedLabelValue(buf, labels[i].Value)
		buf = append(buf, '"')
	}
	if le != nil {
		if len(labels) > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `le="`...)
		buf = append(buf, le...)
		buf = append(buf, '"')
	}
	buf = append(buf, '}')
	return buf, nil
}

// appendValue renders a float the way the format expects: shortest
// round-trip representation, with ±Inf and NaN spelled out.
func appendValue(buf []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(buf, "+Inf"...)
	case math.IsInf(v, -1):
		return append(buf, "-Inf"...)
	case math.IsNaN(v):
		return append(buf, "NaN"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// appendEscapedHelp escapes a HELP line: backslash and newline.
func appendEscapedHelp(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			buf = append(buf, `\\`...)
		case '\n':
			buf = append(buf, `\n`...)
		default:
			buf = append(buf, s[i])
		}
	}
	return buf
}

// appendEscapedLabelValue escapes a label value: backslash, double
// quote and newline.
func appendEscapedLabelValue(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			buf = append(buf, `\\`...)
		case '"':
			buf = append(buf, `\"`...)
		case '\n':
			buf = append(buf, `\n`...)
		default:
			buf = append(buf, s[i])
		}
	}
	return buf
}

// validMetricName checks the format's metric-name grammar:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// validLabelName checks [a-zA-Z_][a-zA-Z0-9_]*; the "__" prefix is
// reserved by the format.
func validLabelName(s string) bool {
	if s == "" || (len(s) >= 2 && s[0] == '_' && s[1] == '_') {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// ExpBuckets returns n log-spaced histogram upper bounds: start,
// start·factor, start·factor², … — the spacing a latency histogram
// wants so both sub-millisecond feeds and hundred-millisecond stalls
// land in informative buckets. start must be positive, factor > 1 and
// n ≥ 1.
func ExpBuckets(start, factor float64, n int) ([]float64, error) {
	if !(start > 0) || !(factor > 1) || n < 1 {
		return nil, fmt.Errorf("expose: ExpBuckets(%g, %g, %d): need start > 0, factor > 1, n ≥ 1",
			start, factor, n)
	}
	out := make([]float64, n)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out, nil
}

// sortLabels orders a label set by name (the canonical order the
// writer and parser key on). Exposed internally for the parser.
func sortLabels(ls []Label) {
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
}
