// Package stats provides the numerical building blocks the analysis and
// report layers share: empirical CDFs, streaming log-bucket histograms
// (for tip distributions over hundreds of millions of bundles), per-day
// time series, and SOL↔USD conversion.
package stats

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sort"
)

// SOLPriceUSD is the SOL→USD conversion rate. The paper pins all dollar
// figures to the rate of September 12, 2025 (~$242); studies may override.
const SOLPriceUSD = 242.0

// LamportsToUSD converts lamports to dollars at rate (USD per SOL).
func LamportsToUSD(lamports float64, rate float64) float64 {
	return lamports / 1e9 * rate
}

// ECDF is an empirical cumulative distribution over float64 samples.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts the samples.
func NewECDF(samples []float64) *ECDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Len returns the sample count.
func (e *ECDF) Len() int { return len(e.sorted) }

// At returns the fraction of samples ≤ x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using the nearest-rank
// method. Quantile(0.5) is the median.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return e.sorted[i]
}

// Values returns a copy of the sorted samples (for resampling).
func (e *ECDF) Values() []float64 { return append([]float64(nil), e.sorted...) }

// Mean returns the arithmetic mean.
func (e *ECDF) Mean() float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	var sum float64
	for _, v := range e.sorted {
		sum += v
	}
	return sum / float64(len(e.sorted))
}

// Point is one (x, cumulative fraction) pair of a CDF curve.
type Point struct {
	X float64
	F float64
}

// Curve returns n points sampling the CDF at evenly spaced quantiles,
// suitable for plotting Figures 3 and 4.
func (e *ECDF) Curve(n int) []Point {
	if len(e.sorted) == 0 || n <= 0 {
		return nil
	}
	out := make([]Point, 0, n)
	for i := 1; i <= n; i++ {
		q := float64(i) / float64(n)
		out = append(out, Point{X: e.Quantile(q), F: q})
	}
	return out
}

// LogHistogram is a streaming histogram with logarithmically spaced
// buckets, used where holding raw samples is infeasible — the paper's
// Figure 4 covers tip values across ~1.5 billion bundles. BucketsPerDecade
// log-spaced buckets per power of ten bound quantile error to a few
// percent, ample for CDF plots spanning six orders of magnitude.
type LogHistogram struct {
	counts []uint64
	total  uint64
	min    float64 // smallest representable value (bucket 0 covers <= min)
	perDec int
}

// NewLogHistogram creates a histogram covering [min, min*10^decades) with
// perDecade buckets per power of ten.
func NewLogHistogram(min float64, decades, perDecade int) *LogHistogram {
	if min <= 0 || decades <= 0 || perDecade <= 0 {
		panic("stats: invalid log histogram shape")
	}
	return &LogHistogram{
		counts: make([]uint64, decades*perDecade+1),
		min:    min,
		perDec: perDecade,
	}
}

// NewTipHistogram covers 1 lamport to 10^7 SOL with 1% resolution —
// the range of every Jito tip in the study.
func NewTipHistogram() *LogHistogram { return NewLogHistogram(1, 16, 50) }

func (h *LogHistogram) bucket(v float64) int {
	if v <= h.min {
		return 0
	}
	b := int(math.Log10(v/h.min)*float64(h.perDec)) + 1
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	return b
}

// Add records one observation.
func (h *LogHistogram) Add(v float64) {
	h.counts[h.bucket(v)]++
	h.total++
}

// AddN records n identical observations.
func (h *LogHistogram) AddN(v float64, n uint64) {
	h.counts[h.bucket(v)] += n
	h.total += n
}

// Total returns the observation count.
func (h *LogHistogram) Total() uint64 { return h.total }

// value returns the upper edge of bucket b.
func (h *LogHistogram) value(b int) float64 {
	if b == 0 {
		return h.min
	}
	return h.min * math.Pow(10, float64(b)/float64(h.perDec))
}

// Quantile returns the approximate q-quantile.
func (h *LogHistogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= target {
			return h.value(b)
		}
	}
	return h.value(len(h.counts) - 1)
}

// At returns the fraction of observations ≤ x.
func (h *LogHistogram) At(x float64) float64 {
	if h.total == 0 {
		return 0
	}
	bx := h.bucket(x)
	var cum uint64
	for b := 0; b <= bx; b++ {
		cum += h.counts[b]
	}
	return float64(cum) / float64(h.total)
}

// Curve returns the non-empty buckets as CDF points.
func (h *LogHistogram) Curve() []Point {
	if h.total == 0 {
		return nil
	}
	var out []Point
	var cum uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		out = append(out, Point{X: h.value(b), F: float64(cum) / float64(h.total)})
	}
	return out
}

// AppendBinary appends the histogram's binary encoding to buf and
// returns the extended slice — the allocation-free core of
// MarshalBinary, called directly by the snapshot encoder.
func (h *LogHistogram) AppendBinary(buf []byte) []byte {
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	put(math.Float64bits(h.min))
	put(uint64(h.perDec))
	put(h.total)
	put(uint64(len(h.counts)))
	for _, c := range h.counts {
		put(c)
	}
	return buf
}

// MarshalBinary encodes the histogram for persistence
// (encoding.BinaryMarshaler over the AppendBinary layout).
func (h *LogHistogram) MarshalBinary() ([]byte, error) {
	return h.AppendBinary(make([]byte, 0, 8*(4+len(h.counts)))), nil
}

// UnmarshalBinary decodes a histogram produced by MarshalBinary.
func (h *LogHistogram) UnmarshalBinary(b []byte) error {
	if len(b) < 32 {
		return errors.New("stats: histogram truncated")
	}
	get := func() uint64 {
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v
	}
	h.min = math.Float64frombits(get())
	h.perDec = int(get())
	h.total = get()
	n := int(get())
	if n < 0 || n > 1<<20 || len(b) != 8*n {
		return errors.New("stats: histogram length mismatch")
	}
	h.counts = make([]uint64, n)
	for i := range h.counts {
		h.counts[i] = get()
	}
	return nil
}

// TimeSeries accumulates one float64 value per study day.
type TimeSeries struct {
	vals map[int]float64
}

// NewTimeSeries returns an empty series.
func NewTimeSeries() *TimeSeries { return &TimeSeries{vals: make(map[int]float64)} }

// Add accumulates v into day d.
func (t *TimeSeries) Add(d int, v float64) { t.vals[d] += v }

// Get returns day d's value (0 if never touched).
func (t *TimeSeries) Get(d int) float64 { return t.vals[d] }

// Days returns the touched days in ascending order.
func (t *TimeSeries) Days() []int {
	out := make([]int, 0, len(t.vals))
	for d := range t.vals {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// Sum returns the total across all days.
func (t *TimeSeries) Sum() float64 {
	var s float64
	for _, v := range t.vals {
		s += v
	}
	return s
}

// BootstrapCI estimates a (1-alpha) confidence interval for the
// q-quantile of the sample by bootstrap resampling. The scaled studies
// report medians from hundreds rather than hundreds of thousands of
// sandwiches, so EXPERIMENTS.md quotes intervals, not just points.
// Deterministic in rng.
func BootstrapCI(samples []float64, q, alpha float64, iters int, rng *rand.Rand) (lo, hi float64) {
	n := len(samples)
	if n == 0 || iters <= 0 {
		return 0, 0
	}
	ests := make([]float64, iters)
	resample := make([]float64, n)
	for it := 0; it < iters; it++ {
		for i := range resample {
			resample[i] = samples[rng.Intn(n)]
		}
		ests[it] = NewECDF(resample).Quantile(q)
	}
	e := NewECDF(ests)
	return e.Quantile(alpha / 2), e.Quantile(1 - alpha/2)
}

// Pearson returns the Pearson correlation coefficient between two series
// over the days present in both. The paper observes that the decline in
// attacks "may be partially explained by a corresponding increase in
// defensive bundling" (§5) — this makes that observation a number.
// Returns 0 when fewer than two common days exist or either series is
// constant.
func Pearson(a, b *TimeSeries) float64 {
	var xs, ys []float64
	for _, d := range a.Days() {
		if _, ok := b.vals[d]; ok {
			xs = append(xs, a.vals[d])
			ys = append(ys, b.vals[d])
		}
	}
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// LinearTrend fits v = a + b*day by least squares and returns the slope b.
// Used to assert direction of the Figure 2 trends (attacks declining,
// defensive bundles rising).
func (t *TimeSeries) LinearTrend() float64 {
	days := t.Days()
	n := float64(len(days))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, d := range days {
		x, y := float64(d), t.vals[d]
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
