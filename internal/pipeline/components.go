package pipeline

import (
	"fmt"
	"math"
	"slices"

	"cdml/internal/data"
	"cdml/internal/linalg"
	"cdml/internal/stats"
)

// Imputer replaces missing values using incrementally maintained statistics:
// the running mean for float columns and the most frequent value for string
// columns (paper §3.1 lists imputation among the incrementally supported
// components).
type Imputer struct {
	// FloatCols are the numeric columns to impute with the running mean.
	FloatCols []string
	// StringCols are the categorical columns to impute with the mode.
	StringCols []string

	means map[string]*stats.Welford
	modes map[string]*stats.Categorical
}

// NewImputer returns an imputer over the given columns.
func NewImputer(floatCols, stringCols []string) *Imputer {
	im := &Imputer{
		FloatCols:  floatCols,
		StringCols: stringCols,
		means:      make(map[string]*stats.Welford),
		modes:      make(map[string]*stats.Categorical),
	}
	for _, c := range floatCols {
		im.means[c] = &stats.Welford{}
	}
	for _, c := range stringCols {
		im.modes[c] = stats.NewCategorical()
	}
	return im
}

// Name implements Component.
func (im *Imputer) Name() string { return "imputer" }

// Stateless implements Component.
func (im *Imputer) Stateless() bool { return false }

// Update implements Component: non-missing cells feed the statistics.
func (im *Imputer) Update(f *data.Frame) error {
	for _, c := range im.FloatCols {
		w := im.means[c]
		for _, v := range f.Float(c) {
			if !data.IsMissingFloat(v) {
				w.Observe(v)
			}
		}
	}
	for _, c := range im.StringCols {
		m := im.modes[c]
		for _, v := range f.String(c) {
			if v != "" {
				m.Observe(v)
			}
		}
	}
	return nil
}

// Snapshot implements Component: deep-copies the running means and modes.
func (im *Imputer) Snapshot() Component {
	c := &Imputer{
		FloatCols:  im.FloatCols,
		StringCols: im.StringCols,
		means:      make(map[string]*stats.Welford, len(im.means)),
		modes:      make(map[string]*stats.Categorical, len(im.modes)),
	}
	for k, w := range im.means {
		cw := *w
		c.means[k] = &cw
	}
	for k, m := range im.modes {
		c.modes[k] = m.Clone()
	}
	return c
}

// Transform implements Component.
func (im *Imputer) Transform(f *data.Frame) (*data.Frame, error) {
	g := f.ShallowCopy()
	for _, c := range im.FloatCols {
		src := f.Float(c)
		fill := im.means[c].Mean()
		out := make([]float64, len(src))
		for i, v := range src {
			if data.IsMissingFloat(v) {
				out[i] = fill
			} else {
				out[i] = v
			}
		}
		g.SetFloat(c, out)
	}
	for _, c := range im.StringCols {
		src := f.String(c)
		fill, _ := im.modes[c].MostFrequent()
		out := make([]string, len(src))
		for i, v := range src {
			if v == "" {
				out[i] = fill
			} else {
				out[i] = v
			}
		}
		g.SetString(c, out)
	}
	return g, nil
}

// StandardScaler standardizes float columns to zero mean and unit variance
// using incrementally maintained moments. Columns with zero variance map to
// zero.
type StandardScaler struct {
	// Cols are the numeric columns to scale.
	Cols []string

	moments map[string]*stats.Welford
}

// NewStandardScaler returns a scaler over the given columns.
func NewStandardScaler(cols []string) *StandardScaler {
	s := &StandardScaler{Cols: cols, moments: make(map[string]*stats.Welford)}
	for _, c := range cols {
		s.moments[c] = &stats.Welford{}
	}
	return s
}

// Name implements Component.
func (s *StandardScaler) Name() string { return "standard-scaler" }

// Stateless implements Component.
func (s *StandardScaler) Stateless() bool { return false }

// Update implements Component.
func (s *StandardScaler) Update(f *data.Frame) error {
	for _, c := range s.Cols {
		w := s.moments[c]
		for _, v := range f.Float(c) {
			if !data.IsMissingFloat(v) {
				w.Observe(v)
			}
		}
	}
	return nil
}

// Snapshot implements Component: deep-copies the running moments.
func (s *StandardScaler) Snapshot() Component {
	c := &StandardScaler{Cols: s.Cols, moments: make(map[string]*stats.Welford, len(s.moments))}
	for k, w := range s.moments {
		cw := *w
		c.moments[k] = &cw
	}
	return c
}

// Transform implements Component.
func (s *StandardScaler) Transform(f *data.Frame) (*data.Frame, error) {
	g := f.ShallowCopy()
	for _, c := range s.Cols {
		w := s.moments[c]
		mean, std := w.Mean(), w.Std()
		src := f.Float(c)
		out := make([]float64, len(src))
		for i, v := range src {
			if std > 0 {
				out[i] = (v - mean) / std
			}
		}
		g.SetFloat(c, out)
	}
	return g, nil
}

// Mean exposes the running mean of a scaled column (for tests and
// diagnostics).
func (s *StandardScaler) Mean(col string) float64 { return s.moments[col].Mean() }

// Std exposes the running standard deviation of a scaled column.
func (s *StandardScaler) Std(col string) float64 { return s.moments[col].Std() }

// MinMaxScaler rescales float columns to [0, 1] using incrementally
// maintained minima and maxima.
type MinMaxScaler struct {
	// Cols are the numeric columns to scale.
	Cols []string

	min map[string]float64
	max map[string]float64
}

// NewMinMaxScaler returns a min-max scaler over the given columns.
func NewMinMaxScaler(cols []string) *MinMaxScaler {
	s := &MinMaxScaler{Cols: cols, min: make(map[string]float64), max: make(map[string]float64)}
	for _, c := range cols {
		s.min[c] = math.Inf(1)
		s.max[c] = math.Inf(-1)
	}
	return s
}

// Name implements Component.
func (s *MinMaxScaler) Name() string { return "minmax-scaler" }

// Stateless implements Component.
func (s *MinMaxScaler) Stateless() bool { return false }

// Update implements Component.
func (s *MinMaxScaler) Update(f *data.Frame) error {
	for _, c := range s.Cols {
		for _, v := range f.Float(c) {
			if data.IsMissingFloat(v) {
				continue
			}
			if v < s.min[c] {
				s.min[c] = v
			}
			if v > s.max[c] {
				s.max[c] = v
			}
		}
	}
	return nil
}

// Snapshot implements Component: deep-copies the running minima and maxima.
func (s *MinMaxScaler) Snapshot() Component {
	c := &MinMaxScaler{Cols: s.Cols, min: make(map[string]float64, len(s.min)), max: make(map[string]float64, len(s.max))}
	for k, v := range s.min {
		c.min[k] = v
	}
	for k, v := range s.max {
		c.max[k] = v
	}
	return c
}

// Transform implements Component. Values outside the observed range clamp to
// [0, 1]; a constant column maps to 0.
func (s *MinMaxScaler) Transform(f *data.Frame) (*data.Frame, error) {
	g := f.ShallowCopy()
	for _, c := range s.Cols {
		lo, hi := s.min[c], s.max[c]
		src := f.Float(c)
		out := make([]float64, len(src))
		for i, v := range src {
			if hi > lo {
				x := (v - lo) / (hi - lo)
				out[i] = math.Min(1, math.Max(0, x))
			}
		}
		g.SetFloat(c, out)
	}
	return g, nil
}

// OneHotEncoder expands a categorical string column into a sparse indicator
// vector. Its statistic is the incrementally updatable value→ordinal hash
// table of paper §3.1. The output dimension is fixed at construction so the
// downstream model dimension never changes mid-deployment; categories beyond
// Size wrap around via modulo (in practice Size is chosen above the expected
// cardinality).
type OneHotEncoder struct {
	// Col is the categorical column to encode.
	Col string
	// Out is the name of the produced vector column.
	Out string
	// Size is the fixed output dimensionality.
	Size int

	domain *stats.Categorical
}

// NewOneHotEncoder returns a one-hot encoder producing a size-dimensional
// indicator column named out.
func NewOneHotEncoder(col, out string, size int) *OneHotEncoder {
	if size <= 0 {
		panic(fmt.Sprintf("pipeline: one-hot size must be positive, got %d", size))
	}
	return &OneHotEncoder{Col: col, Out: out, Size: size, domain: stats.NewCategorical()}
}

// Name implements Component.
func (o *OneHotEncoder) Name() string { return "one-hot" }

// Stateless implements Component.
func (o *OneHotEncoder) Stateless() bool { return false }

// Update implements Component.
func (o *OneHotEncoder) Update(f *data.Frame) error {
	for _, v := range f.String(o.Col) {
		if v != "" {
			o.domain.Observe(v)
		}
	}
	return nil
}

// Snapshot implements Component: deep-copies the value→ordinal table.
func (o *OneHotEncoder) Snapshot() Component {
	return &OneHotEncoder{Col: o.Col, Out: o.Out, Size: o.Size, domain: o.domain.Clone()}
}

// Transform implements Component. Unseen or missing values encode as the
// all-zero vector.
func (o *OneHotEncoder) Transform(f *data.Frame) (*data.Frame, error) {
	src := f.String(o.Col)
	out := make([]linalg.Vector, len(src))
	for i, v := range src {
		if ord, ok := o.domain.Ordinal(v); ok {
			out[i] = linalg.NewSparse(o.Size, []int32{int32(ord % o.Size)}, []float64{1})
		} else {
			out[i] = linalg.NewSparse(o.Size, nil, nil)
		}
	}
	return f.ShallowCopy().SetVec(o.Out, out), nil
}

// Cardinality exposes the number of distinct categories observed.
func (o *OneHotEncoder) Cardinality() int { return o.domain.Cardinality() }

// FeatureHasher hashes string tokens and numeric columns into a fixed-size
// sparse feature vector (the hashing trick). It is stateless: the hash
// function needs no statistics, which is why the paper's URL pipeline can
// apply it to an unbounded, growing token vocabulary. Token occurrences
// accumulate counts; numeric columns contribute their value at the hash of
// the column name. The bucket of a string is its FNV-1a 32 hash modulo
// Size; entries that share a bucket are summed in order of first
// appearance (numeric columns first, then tokens as they occur). Build it
// with NewFeatureHasher and leave its fields unchanged afterwards: the
// numeric columns' buckets are hashed there.
type FeatureHasher struct {
	// TokenCols are string columns of space-separated tokens.
	TokenCols []string
	// NumCols are numeric columns folded in by column-name hash.
	NumCols []string
	// Out is the produced vector column.
	Out string
	// Size is the number of hash buckets (the feature dimensionality).
	Size int

	// numBuckets[k] is the bucket of "num:"+NumCols[k].
	numBuckets []int32
}

// NewFeatureHasher returns a hasher into size buckets.
func NewFeatureHasher(tokenCols, numCols []string, out string, size int) *FeatureHasher {
	if size <= 0 {
		panic(fmt.Sprintf("pipeline: hasher size must be positive, got %d", size))
	}
	h := &FeatureHasher{TokenCols: tokenCols, NumCols: numCols, Out: out, Size: size}
	h.numBuckets = make([]int32, len(numCols))
	for k, c := range numCols {
		h.numBuckets[k] = h.bucket(fnv1a(fnv1a(fnvOffset32, "num:"), c))
	}
	return h
}

// Name implements Component.
func (h *FeatureHasher) Name() string { return "feature-hasher" }

// Stateless implements Component.
func (h *FeatureHasher) Stateless() bool { return true }

// Update implements Component (no statistics).
func (h *FeatureHasher) Update(f *data.Frame) error { return nil }

// Snapshot implements Component: stateless, shares itself.
func (h *FeatureHasher) Snapshot() Component { return h }

// FNV-1a 32 parameters; fnv1a(fnvOffset32, s) equals hash/fnv's New32a
// sum over the bytes of s.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// fnv1a extends the FNV-1a 32 hash state h over the bytes of s.
func fnv1a(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return h
}

func (h *FeatureHasher) bucket(sum uint32) int32 {
	return int32(sum % uint32(h.Size))
}

// nextToken returns the bounds of the first space-separated token of s at
// or after byte j; lo == hi when none is left.
func nextToken(s string, j int) (lo, hi int) {
	for j < len(s) && s[j] == ' ' {
		j++
	}
	lo = j
	for j < len(s) && s[j] != ' ' {
		j++
	}
	return lo, j
}

// hashedNum reports whether a numeric cell contributes an entry.
func hashedNum(v float64) bool {
	//lint:allow floateq: sparse encoding stores only exactly-non-zero entries
	return v != 0 && !data.IsMissingFloat(v)
}

// Transform implements Component. Its allocation count does not depend on
// the number of rows: a counting pass sizes one scratch of sort keys, and
// the batch's vectors share one exactly sized Idx and Val backing, each
// vector capped at its own length so an append to one cannot reach the
// next. The vectors are read-only.
func (h *FeatureHasher) Transform(f *data.Frame) (*data.Frame, error) {
	n := f.Rows()
	nums := make([][]float64, len(h.NumCols))
	for k, c := range h.NumCols {
		nums[k] = f.Float(c)
	}
	toks := make([][]string, len(h.TokenCols))
	for k, c := range h.TokenCols {
		toks[k] = f.String(c)
	}

	// Counting pass: row i's entries are keys[ends[i-1]:ends[i]].
	ends := make([]int, n)
	total := 0
	for i := range ends {
		for k := range nums {
			if hashedNum(nums[k][i]) {
				total++
			}
		}
		for k := range toks {
			s := toks[k][i]
			for lo, hi := nextToken(s, 0); lo < hi; lo, hi = nextToken(s, hi) {
				total++
			}
		}
		ends[i] = total
	}

	// Key pass: entry p of a row (numeric column k at p = k, then tokens
	// from p = len(NumCols) on) becomes bucket<<32 | p. Sorting a row's keys
	// orders its entries by bucket and, within a bucket, by first
	// appearance, so duplicates sum in the same order under any sort.
	keys := make([]uint64, total)
	nnz, start := 0, 0
	for i, end := range ends {
		row := keys[start:end]
		w := 0
		for k := range nums {
			if hashedNum(nums[k][i]) {
				row[w] = uint64(h.numBuckets[k])<<32 | uint64(k)
				w++
			}
		}
		p := len(nums)
		for k := range toks {
			s := toks[k][i]
			for lo, hi := nextToken(s, 0); lo < hi; lo, hi = nextToken(s, hi) {
				row[w] = uint64(h.bucket(fnv1a(fnvOffset32, s[lo:hi])))<<32 | uint64(p)
				w++
				p++
			}
		}
		slices.Sort(row)
		for j := range row {
			if j == 0 || row[j]>>32 != row[j-1]>>32 {
				nnz++
			}
		}
		start = end
	}

	// Fill pass: sum each row's runs of equal buckets into the shared
	// backing.
	idx := make([]int32, nnz)
	val := make([]float64, nnz)
	vecs := make([]linalg.Sparse, n)
	out := make([]linalg.Vector, n)
	o := 0
	start = 0
	for i, end := range ends {
		lo := o
		for _, key := range keys[start:end] {
			b, p := int32(key>>32), int(uint32(key))
			v := 1.0
			if p < len(nums) {
				v = nums[p][i]
			}
			if o > lo && idx[o-1] == b {
				val[o-1] += v
				continue
			}
			idx[o], val[o] = b, v
			o++
		}
		vecs[i] = linalg.Sparse{N: h.Size, Idx: idx[lo:o:o], Val: val[lo:o:o]}
		out[i] = &vecs[i]
		start = end
	}
	return f.ShallowCopy().SetVec(h.Out, out), nil
}

// Filter drops rows failing a predicate. It is the anomaly-detector shape of
// the paper's Taxi pipeline (trips longer than 22 hours, shorter than 10
// seconds, or with zero distance are removed). Filters are stateless.
type Filter struct {
	// What names the filter for diagnostics (e.g. "anomaly-detector").
	What string
	// Keep returns true for rows that survive. It receives the frame and
	// the row index.
	Keep func(f *data.Frame, i int) bool
}

// NewFilter returns a row filter.
func NewFilter(what string, keep func(f *data.Frame, i int) bool) *Filter {
	return &Filter{What: what, Keep: keep}
}

// Name implements Component.
func (fl *Filter) Name() string { return fl.What }

// Stateless implements Component.
func (fl *Filter) Stateless() bool { return true }

// Update implements Component (no statistics).
func (fl *Filter) Update(f *data.Frame) error { return nil }

// Snapshot implements Component: stateless, shares itself.
func (fl *Filter) Snapshot() Component { return fl }

// Transform implements Component.
func (fl *Filter) Transform(f *data.Frame) (*data.Frame, error) {
	keep := make([]bool, f.Rows())
	for i := range keep {
		keep[i] = fl.Keep(f, i)
	}
	return f.Select(keep), nil
}

// Mapper applies a user-defined stateless row transformation that appends
// or replaces float columns. It is the extension point for custom feature
// extraction (paper §3.1 notes user-defined components may also plug into
// the online statistics machinery; stateful custom components implement
// Component directly).
type Mapper struct {
	// What names the mapper.
	What string
	// Outs are the float columns the mapper produces.
	Outs []string
	// Fn computes the output values for row i.
	Fn func(f *data.Frame, i int, out []float64)
}

// NewMapper returns a stateless row mapper producing the given columns.
func NewMapper(what string, outs []string, fn func(f *data.Frame, i int, out []float64)) *Mapper {
	return &Mapper{What: what, Outs: outs, Fn: fn}
}

// Name implements Component.
func (m *Mapper) Name() string { return m.What }

// Stateless implements Component.
func (m *Mapper) Stateless() bool { return true }

// Update implements Component (no statistics).
func (m *Mapper) Update(f *data.Frame) error { return nil }

// Snapshot implements Component: stateless, shares itself.
func (m *Mapper) Snapshot() Component { return m }

// Transform implements Component.
func (m *Mapper) Transform(f *data.Frame) (*data.Frame, error) {
	n := f.Rows()
	cols := make([][]float64, len(m.Outs))
	for k := range cols {
		cols[k] = make([]float64, n)
	}
	row := make([]float64, len(m.Outs))
	for i := 0; i < n; i++ {
		m.Fn(f, i, row)
		for k := range cols {
			cols[k][i] = row[k]
		}
	}
	g := f.ShallowCopy()
	for k, name := range m.Outs {
		g.SetFloat(name, cols[k])
	}
	return g, nil
}

// Assembler concatenates float columns and vector columns into a single
// feature vector column. The output is sparse if any input vector column is
// sparse, else dense.
type Assembler struct {
	// FloatCols contribute one coordinate each, in order.
	FloatCols []string
	// VecCols contribute their full dimensionality each, in order.
	VecCols []string
	// Out is the produced feature column (typically "features").
	Out string
}

// NewAssembler returns an assembler producing the out column.
func NewAssembler(floatCols, vecCols []string, out string) *Assembler {
	return &Assembler{FloatCols: floatCols, VecCols: vecCols, Out: out}
}

// Name implements Component.
func (a *Assembler) Name() string { return "assembler" }

// Stateless implements Component.
func (a *Assembler) Stateless() bool { return true }

// Update implements Component (no statistics).
func (a *Assembler) Update(f *data.Frame) error { return nil }

// Snapshot implements Component: stateless, shares itself.
func (a *Assembler) Snapshot() Component { return a }

// Transform implements Component.
func (a *Assembler) Transform(f *data.Frame) (*data.Frame, error) {
	n := f.Rows()
	floats := make([][]float64, len(a.FloatCols))
	for k, c := range a.FloatCols {
		floats[k] = f.Float(c)
	}
	vecs := make([][]linalg.Vector, len(a.VecCols))
	vecDims := make([]int, len(a.VecCols))
	for k, c := range a.VecCols {
		vecs[k] = f.Vec(c)
		if n > 0 {
			vecDims[k] = vecs[k][0].Dim()
		}
	}
	totalDim := len(a.FloatCols)
	sparse := false
	for k := range vecDims {
		totalDim += vecDims[k]
		if n > 0 {
			if _, ok := vecs[k][0].(*linalg.Sparse); ok {
				sparse = true
			}
		}
	}
	out := make([]linalg.Vector, n)
	for i := 0; i < n; i++ {
		if sparse {
			var idx []int32
			var val []float64
			for k := range floats {
				//lint:allow floateq: sparse encoding stores only exactly-non-zero entries
				if v := floats[k][i]; v != 0 && !data.IsMissingFloat(v) {
					idx = append(idx, int32(k))
					val = append(val, v)
				}
			}
			off := len(a.FloatCols)
			for k := range vecs {
				v := vecs[k][i]
				if v.Dim() != vecDims[k] {
					return nil, fmt.Errorf("pipeline: assembler: vector column %q dim %d varies from %d", a.VecCols[k], v.Dim(), vecDims[k])
				}
				switch t := v.(type) {
				case *linalg.Sparse:
					for j, ix := range t.Idx {
						idx = append(idx, int32(off)+ix)
						val = append(val, t.Val[j])
					}
				default:
					for j := 0; j < v.Dim(); j++ {
						//lint:allow floateq: sparse encoding stores only exactly-non-zero entries
						if x := v.At(j); x != 0 {
							idx = append(idx, int32(off+j))
							val = append(val, x)
						}
					}
				}
				off += vecDims[k]
			}
			out[i] = linalg.NewSparse(totalDim, idx, val)
		} else {
			d := make(linalg.Dense, 0, totalDim)
			for k := range floats {
				v := floats[k][i]
				if data.IsMissingFloat(v) {
					v = 0
				}
				d = append(d, v)
			}
			for k := range vecs {
				v := vecs[k][i]
				if v.Dim() != vecDims[k] {
					return nil, fmt.Errorf("pipeline: assembler: vector column %q dim %d varies from %d", a.VecCols[k], v.Dim(), vecDims[k])
				}
				for j := 0; j < v.Dim(); j++ {
					d = append(d, v.At(j))
				}
			}
			out[i] = d
		}
	}
	return f.ShallowCopy().SetVec(a.Out, out), nil
}

// OutputDim returns the assembled dimensionality given the per-column vector
// dimensions; callers size their models with it.
func (a *Assembler) OutputDim(vecDims map[string]int) int {
	d := len(a.FloatCols)
	for _, c := range a.VecCols {
		d += vecDims[c]
	}
	return d
}
