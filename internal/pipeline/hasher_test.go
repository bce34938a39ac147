package pipeline_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"cdml/internal/data"
	"cdml/internal/dataset"
	"cdml/internal/linalg"
	"cdml/internal/pipeline"
)

// fields splits s on runs of spaces, as the hasher's tokenizer first did.
func fields(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	start := -1
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

func refBucket(size int, s string) int32 {
	hh := fnv.New32a()
	hh.Write([]byte(s))
	return int32(hh.Sum32() % uint32(size))
}

// refTransform is FeatureHasher.Transform as first written: hash/fnv per
// token, fields() splitting and NewSparse per row. It is the reference the
// allocation-constant hasher must match bit for bit.
func refTransform(h *pipeline.FeatureHasher, f *data.Frame) []linalg.Vector {
	out := make([]linalg.Vector, f.Rows())
	for i := range out {
		var idx []int32
		var val []float64
		for _, c := range h.NumCols {
			if v := f.Float(c)[i]; !data.IsMissingFloat(v) && v != 0 {
				idx = append(idx, refBucket(h.Size, "num:"+c))
				val = append(val, v)
			}
		}
		for _, c := range h.TokenCols {
			for _, tok := range fields(f.String(c)[i]) {
				idx = append(idx, refBucket(h.Size, tok))
				val = append(val, 1)
			}
		}
		out[i] = linalg.NewSparse(h.Size, idx, val)
	}
	return out
}

// firstAppearance hashes row by row into a map, summing each bucket's
// entries in the order they occur, independently of any sort.
func firstAppearance(h *pipeline.FeatureHasher, f *data.Frame) []linalg.Vector {
	out := make([]linalg.Vector, f.Rows())
	for i := range out {
		sums := map[int32]float64{} // 0 + v == v: no entry is zero
		for _, c := range h.NumCols {
			if v := f.Float(c)[i]; !data.IsMissingFloat(v) && v != 0 {
				sums[refBucket(h.Size, "num:"+c)] += v
			}
		}
		for _, c := range h.TokenCols {
			for _, tok := range fields(f.String(c)[i]) {
				sums[refBucket(h.Size, tok)]++
			}
		}
		s := &linalg.Sparse{N: h.Size}
		for b := range sums {
			s.Idx = append(s.Idx, b)
		}
		slices.Sort(s.Idx)
		for _, b := range s.Idx {
			s.Val = append(s.Val, sums[b])
		}
		out[i] = s
	}
	return out
}

func sameVectors(t *testing.T, what string, got, want []linalg.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vectors, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i].(*linalg.Sparse), want[i].(*linalg.Sparse)
		if g.N != w.N || len(g.Idx) != len(w.Idx) || len(g.Val) != len(g.Idx) {
			t.Fatalf("%s: row %d = %v, want %v", what, i, g, w)
		}
		for k := range w.Idx {
			if g.Idx[k] != w.Idx[k] || math.Float64bits(g.Val[k]) != math.Float64bits(w.Val[k]) {
				t.Fatalf("%s: row %d = %v, want %v", what, i, g, w)
			}
		}
	}
}

// urlHasherInputs returns generated URL chunks as the hasher sees them in
// the URL pipeline (imputed and scaled), plus the raw parsed frames, whose
// Missing cells the hasher must skip.
func urlHasherInputs(t *testing.T, rows, chunks int) []*data.Frame {
	t.Helper()
	cfg := dataset.DefaultURLConfig()
	cfg.Days, cfg.ChunksPerDay, cfg.RowsPerChunk, cfg.Vocab = 2, chunks, rows, 2000
	gen := dataset.NewURL(cfg)
	pipe := dataset.NewURLPipeline(1 << 10)
	var out []*data.Frame
	for i := 0; i < chunks; i++ {
		raw, err := pipe.Parser.Parse(gen.Chunk(i))
		if err != nil {
			t.Fatal(err)
		}
		f := raw
		for _, c := range pipe.Components[:len(pipe.Components)-1] {
			if err := c.Update(f); err != nil {
				t.Fatal(err)
			}
			if f, err = c.Transform(f); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, raw, f)
	}
	return out
}

func TestFeatureHasherMatchesReference(t *testing.T) {
	inputs := urlHasherInputs(t, 200, 10)
	for _, size := range []int{1 << 18, 1 << 10} {
		h := pipeline.NewFeatureHasher([]string{"tokens"}, dataset.URLNumCols(), "features", size)
		for i, f := range inputs {
			g, err := h.Transform(f)
			if err != nil {
				t.Fatal(err)
			}
			sameVectors(t, fmt.Sprintf("size %d input %d", size, i), g.Vec("features"), refTransform(h, f))
		}
	}
}

// At 7 buckets almost every row has collisions, between tokens and between
// tokens and numeric columns; they must sum in first-appearance order.
func TestFeatureHasherCollisionsSumInFirstAppearanceOrder(t *testing.T) {
	h := pipeline.NewFeatureHasher([]string{"tokens"}, dataset.URLNumCols(), "features", 7)
	for _, f := range urlHasherInputs(t, 50, 4) {
		g, err := h.Transform(f)
		if err != nil {
			t.Fatal(err)
		}
		sameVectors(t, "size 7", g.Vec("features"), firstAppearance(h, f))
	}
	// One bucket: the sum's rounding shows the order. (1e16+1)+1 == 1e16,
	// while any order adding the ones first gives 1e16+2.
	one := pipeline.NewFeatureHasher([]string{"t"}, []string{"x"}, "v", 1)
	f := data.NewFrame(1).SetFloat("x", []float64{1e16}).SetString("t", []string{"a b"})
	g, err := one.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Vec("v")[0].(*linalg.Sparse).Val[0]; got != 1e16 {
		t.Fatalf("bucket sum = %v, want 1e16 (first-appearance order)", got)
	}
}

func TestFeatureHasherSplitsOnSpaces(t *testing.T) {
	cases := map[string][]string{
		"":            nil,
		"a":           {"a"},
		"a b":         {"a", "b"},
		"  a   b  ":   {"a", "b"},
		"   ":         nil,
		"one two one": {"one", "two", "one"},
	}
	h := pipeline.NewFeatureHasher([]string{"t"}, nil, "v", 1<<18)
	for in, toks := range cases {
		f := data.NewFrame(1).SetString("t", []string{in})
		g, err := h.Transform(f)
		if err != nil {
			t.Fatal(err)
		}
		idx := make([]int32, len(toks))
		val := make([]float64, len(toks))
		for k, tok := range toks {
			idx[k], val[k] = refBucket(h.Size, tok), 1
		}
		sameVectors(t, in, g.Vec("v"), []linalg.Vector{linalg.NewSparse(h.Size, idx, val)})
	}
}

// Vectors of one batch share a backing; each is capped at its own length,
// so growing one by append must leave its neighbour untouched.
func TestFeatureHasherVectorsDoNotOverlap(t *testing.T) {
	h := pipeline.NewFeatureHasher([]string{"t"}, nil, "v", 1<<10)
	f := data.NewFrame(2).SetString("t", []string{"a b c", "d e f"})
	g, err := h.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	vs := g.Vec("v")
	first, second := vs[0].(*linalg.Sparse), vs[1].(*linalg.Sparse)
	before := second.Clone()
	_ = append(first.Idx, 1023)
	_ = append(first.Val, 99)
	sameVectors(t, "neighbour", []linalg.Vector{second}, []linalg.Vector{before})
}

func TestFeatureHasherAllocsConstantInRows(t *testing.T) {
	f := urlHasherInputs(t, 200, 1)[1]
	keep := make([]bool, f.Rows())
	for i := 0; i < 8; i++ {
		keep[i] = true
	}
	small := f.Select(keep)
	h := pipeline.NewFeatureHasher([]string{"tokens"}, dataset.URLNumCols(), "features", 1<<18)
	transform := func(f *data.Frame) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := h.Transform(f); err != nil {
				t.Fatal(err)
			}
		})
	}
	a8, a200 := transform(small), transform(f)
	if a8 != a200 || a200 > 16 {
		t.Fatalf("FeatureHasher.Transform allocs: %v at 8 rows, %v at 200 rows; want equal and ≤ 16", a8, a200)
	}
	t.Logf("FeatureHasher.Transform: %v allocs at 8 and at 200 rows", a200)
}
