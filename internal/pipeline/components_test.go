package pipeline

import (
	"math"
	"testing"

	"cdml/internal/data"
	"cdml/internal/linalg"
)

func floatFrame(vals ...float64) *data.Frame {
	f := data.NewFrame(len(vals))
	f.SetFloat("x", vals)
	return f
}

func TestImputerFloatMean(t *testing.T) {
	im := NewImputer([]string{"x"}, nil)
	f := floatFrame(1, 3, data.Missing)
	if err := im.Update(f); err != nil {
		t.Fatal(err)
	}
	g, err := im.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	got := g.Float("x")
	if got[2] != 2 { // mean of 1,3
		t.Fatalf("imputed = %v, want 2", got[2])
	}
	if got[0] != 1 || got[1] != 3 {
		t.Fatal("non-missing values changed")
	}
	// input frame untouched
	if !data.IsMissingFloat(f.Float("x")[2]) {
		t.Fatal("Transform mutated input")
	}
}

func TestImputerStringMode(t *testing.T) {
	im := NewImputer(nil, []string{"s"})
	f := data.NewFrame(4)
	f.SetString("s", []string{"a", "b", "b", ""})
	_ = im.Update(f)
	g, _ := im.Transform(f)
	if g.String("s")[3] != "b" {
		t.Fatalf("imputed = %q, want b", g.String("s")[3])
	}
}

func TestImputerStatefulFlag(t *testing.T) {
	if NewImputer(nil, nil).Stateless() {
		t.Fatal("imputer should be stateful")
	}
}

func TestImputerAccumulatesAcrossBatches(t *testing.T) {
	im := NewImputer([]string{"x"}, nil)
	_ = im.Update(floatFrame(0, 0))
	_ = im.Update(floatFrame(6))
	g, _ := im.Transform(floatFrame(data.Missing))
	if got := g.Float("x")[0]; got != 2 {
		t.Fatalf("running mean = %v, want 2", got)
	}
}

func TestStandardScaler(t *testing.T) {
	s := NewStandardScaler([]string{"x"})
	f := floatFrame(2, 4, 4, 4, 5, 5, 7, 9) // mean 5, std 2
	_ = s.Update(f)
	g, _ := s.Transform(f)
	got := g.Float("x")
	if math.Abs(got[0]+1.5) > 1e-9 { // (2-5)/2
		t.Fatalf("scaled[0] = %v, want -1.5", got[0])
	}
	if s.Mean("x") != 5 || math.Abs(s.Std("x")-2) > 1e-12 {
		t.Fatalf("stats: mean=%v std=%v", s.Mean("x"), s.Std("x"))
	}
}

func TestStandardScalerZeroVariance(t *testing.T) {
	s := NewStandardScaler([]string{"x"})
	f := floatFrame(3, 3, 3)
	_ = s.Update(f)
	g, _ := s.Transform(f)
	for _, v := range g.Float("x") {
		if v != 0 {
			t.Fatalf("constant column should scale to 0, got %v", v)
		}
	}
}

func TestStandardScalerSkipsMissing(t *testing.T) {
	s := NewStandardScaler([]string{"x"})
	_ = s.Update(floatFrame(1, 3, data.Missing))
	if s.Mean("x") != 2 {
		t.Fatalf("missing values contaminated mean: %v", s.Mean("x"))
	}
}

func TestMinMaxScaler(t *testing.T) {
	s := NewMinMaxScaler([]string{"x"})
	_ = s.Update(floatFrame(0, 10))
	g, _ := s.Transform(floatFrame(5, -5, 20))
	got := g.Float("x")
	if got[0] != 0.5 {
		t.Fatalf("scaled = %v, want 0.5", got[0])
	}
	if got[1] != 0 || got[2] != 1 {
		t.Fatalf("clamping wrong: %v", got)
	}
}

func TestMinMaxScalerConstantColumn(t *testing.T) {
	s := NewMinMaxScaler([]string{"x"})
	_ = s.Update(floatFrame(7, 7))
	g, _ := s.Transform(floatFrame(7))
	if g.Float("x")[0] != 0 {
		t.Fatal("constant column should scale to 0")
	}
}

func TestOneHotEncoder(t *testing.T) {
	o := NewOneHotEncoder("s", "v", 8)
	f := data.NewFrame(3)
	f.SetString("s", []string{"red", "green", "red"})
	_ = o.Update(f)
	g, _ := o.Transform(f)
	vs := g.Vec("v")
	if vs[0].Dim() != 8 {
		t.Fatalf("dim = %d", vs[0].Dim())
	}
	if vs[0].At(0) != 1 || vs[1].At(1) != 1 || vs[2].At(0) != 1 {
		t.Fatalf("one-hot positions wrong: %v %v %v", vs[0], vs[1], vs[2])
	}
	if o.Cardinality() != 2 {
		t.Fatalf("cardinality = %d", o.Cardinality())
	}
}

func TestOneHotUnseenIsZero(t *testing.T) {
	o := NewOneHotEncoder("s", "v", 4)
	train := data.NewFrame(1)
	train.SetString("s", []string{"a"})
	_ = o.Update(train)
	test := data.NewFrame(2)
	test.SetString("s", []string{"zzz", ""})
	g, _ := o.Transform(test)
	for _, v := range g.Vec("v") {
		if v.NNZ() != 0 {
			t.Fatalf("unseen value should encode to zero vector: %v", v)
		}
	}
}

func TestOneHotWrapsBeyondSize(t *testing.T) {
	o := NewOneHotEncoder("s", "v", 2)
	f := data.NewFrame(3)
	f.SetString("s", []string{"a", "b", "c"})
	_ = o.Update(f)
	g, _ := o.Transform(f)
	if g.Vec("v")[2].At(0) != 1 { // ordinal 2 % size 2 = 0
		t.Fatal("modulo wrap wrong")
	}
}

func TestOneHotBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewOneHotEncoder("s", "v", 0)
}

func TestFeatureHasherTokens(t *testing.T) {
	h := NewFeatureHasher([]string{"toks"}, nil, "v", 64)
	f := data.NewFrame(2)
	f.SetString("toks", []string{"foo bar foo", ""})
	g, err := h.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	vs := g.Vec("v")
	// "foo" appears twice → its bucket holds 2.
	var found bool
	s := vs[0].(*linalg.Sparse)
	for _, v := range s.Val {
		if v == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("token counts not accumulated: %v", s)
	}
	if vs[1].NNZ() != 0 {
		t.Fatal("empty token row should be zero vector")
	}
}

func TestFeatureHasherNumeric(t *testing.T) {
	h := NewFeatureHasher(nil, []string{"a", "b"}, "v", 64)
	f := data.NewFrame(1)
	f.SetFloat("a", []float64{2.5})
	f.SetFloat("b", []float64{0}) // zero is dropped
	g, _ := h.Transform(f)
	v := g.Vec("v")[0]
	if v.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1", v.NNZ())
	}
	sum := 0.0
	s := v.(*linalg.Sparse)
	for _, x := range s.Val {
		sum += x
	}
	if sum != 2.5 {
		t.Fatalf("hashed value = %v", sum)
	}
}

func TestFeatureHasherDeterministic(t *testing.T) {
	h := NewFeatureHasher([]string{"toks"}, nil, "v", 32)
	f := data.NewFrame(1)
	f.SetString("toks", []string{"alpha beta"})
	g1, _ := h.Transform(f)
	g2, _ := h.Transform(f)
	a := g1.Vec("v")[0].(*linalg.Sparse)
	b := g2.Vec("v")[0].(*linalg.Sparse)
	if len(a.Idx) != len(b.Idx) {
		t.Fatal("nondeterministic hashing")
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] || a.Val[i] != b.Val[i] {
			t.Fatal("nondeterministic hashing")
		}
	}
}

func TestFeatureHasherStatelessUpdateNoop(t *testing.T) {
	h := NewFeatureHasher(nil, nil, "v", 8)
	if !h.Stateless() {
		t.Fatal("hasher must be stateless")
	}
	if err := h.Update(nil); err != nil {
		t.Fatal(err)
	}
}

func TestFilterDropsRows(t *testing.T) {
	fl := NewFilter("anomaly", func(f *data.Frame, i int) bool {
		return f.Float("x")[i] >= 0
	})
	f := floatFrame(1, -2, 3)
	g, _ := fl.Transform(f)
	if g.Rows() != 2 {
		t.Fatalf("rows = %d", g.Rows())
	}
	if g.Float("x")[1] != 3 {
		t.Fatal("wrong rows kept")
	}
	if fl.Name() != "anomaly" || !fl.Stateless() {
		t.Fatal("metadata wrong")
	}
}

func TestMapperAddsColumns(t *testing.T) {
	m := NewMapper("doubler", []string{"x2", "x3"}, func(f *data.Frame, i int, out []float64) {
		v := f.Float("x")[i]
		out[0] = 2 * v
		out[1] = 3 * v
	})
	g, _ := m.Transform(floatFrame(1, 2))
	if g.Float("x2")[1] != 4 || g.Float("x3")[0] != 3 {
		t.Fatal("mapper output wrong")
	}
}

func TestAssemblerDense(t *testing.T) {
	a := NewAssembler([]string{"f1", "f2"}, nil, "features")
	f := data.NewFrame(2)
	f.SetFloat("f1", []float64{1, 2})
	f.SetFloat("f2", []float64{3, data.Missing})
	g, err := a.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	vs := g.Vec("features")
	if vs[0].Dim() != 2 || vs[0].At(0) != 1 || vs[0].At(1) != 3 {
		t.Fatalf("assembled = %v", vs[0])
	}
	if vs[1].At(1) != 0 {
		t.Fatal("missing should assemble as 0")
	}
}

func TestAssemblerSparseWithVecCols(t *testing.T) {
	a := NewAssembler([]string{"f"}, []string{"v"}, "features")
	f := data.NewFrame(1)
	f.SetFloat("f", []float64{2})
	f.SetVec("v", []linalg.Vector{linalg.NewSparse(4, []int32{1}, []float64{5})})
	g, err := a.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	v := g.Vec("features")[0]
	if v.Dim() != 5 {
		t.Fatalf("dim = %d, want 5", v.Dim())
	}
	if v.At(0) != 2 || v.At(2) != 5 {
		t.Fatalf("assembled sparse wrong: %v", v)
	}
	if _, ok := v.(*linalg.Sparse); !ok {
		t.Fatalf("expected sparse output, got %T", v)
	}
}

func TestAssemblerDenseVecCols(t *testing.T) {
	a := NewAssembler(nil, []string{"v"}, "features")
	f := data.NewFrame(1)
	f.SetVec("v", []linalg.Vector{linalg.Dense{7, 8}})
	g, _ := a.Transform(f)
	v := g.Vec("features")[0]
	if _, ok := v.(linalg.Dense); !ok {
		t.Fatalf("expected dense output, got %T", v)
	}
	if v.At(1) != 8 {
		t.Fatal("values wrong")
	}
}

func TestAssemblerVaryingDimErrors(t *testing.T) {
	a := NewAssembler(nil, []string{"v"}, "features")
	f := data.NewFrame(2)
	f.SetVec("v", []linalg.Vector{linalg.Dense{1}, linalg.Dense{1, 2}})
	if _, err := a.Transform(f); err == nil {
		t.Fatal("expected error on varying vector dims")
	}
}

func TestAssemblerOutputDim(t *testing.T) {
	a := NewAssembler([]string{"a", "b"}, []string{"v"}, "features")
	if got := a.OutputDim(map[string]int{"v": 10}); got != 12 {
		t.Fatalf("OutputDim = %d", got)
	}
}
