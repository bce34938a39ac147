package dataset

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"

	"cdml/internal/data"
)

// The parsers sit on the platform's wire boundary: every byte sequence a
// client POSTs to /train or /predict flows through them. They must never
// panic and never emit frames with inconsistent columns, whatever the
// input.

func checkParsedFrame(t *testing.T, f *data.Frame, labelBounds func(float64) bool) {
	t.Helper()
	if f == nil {
		t.Fatal("nil frame")
	}
	for _, col := range f.Columns() {
		switch f.KindOf(col) {
		case data.KindFloat:
			if len(f.Float(col)) != f.Rows() {
				t.Fatalf("column %q length mismatch", col)
			}
		case data.KindString:
			if len(f.String(col)) != f.Rows() {
				t.Fatalf("column %q length mismatch", col)
			}
		}
	}
	if f.Has("label") {
		for _, y := range f.Float("label") {
			if !labelBounds(y) {
				t.Fatalf("label %v out of bounds", y)
			}
		}
	}
}

func FuzzURLParser(f *testing.F) {
	g := NewURL(smallURLConfig())
	for _, rec := range g.Chunk(0)[:5] {
		f.Add(rec)
	}
	f.Add([]byte("+1\t1,2,3,4\tt1 t2"))
	f.Add([]byte("\t\t"))
	f.Add([]byte("+1\t?,?,?,?\t"))
	f.Add([]byte("-1\t1e308,2,3,4\tt0"))
	f.Fuzz(func(t *testing.T, rec []byte) {
		records := [][]byte{rec, []byte("+1\t1,2,3,4\tt1")}
		frame, err := URLParser{}.Parse(records)
		if err != nil {
			t.Fatalf("parser returned error on arbitrary input: %v", err)
		}
		checkParsedFrame(t, frame, func(y float64) bool { return y == 1 || y == -1 })
		sameFrame(t, frame, referenceURLParse(records))
	})
}

// referenceURLParse is URLParser.Parse as first written (two bytes.Split
// calls, a per-row numeric slice and a string per row), kept as the
// reference the allocation-constant parser must agree with.
func referenceURLParse(records [][]byte) *data.Frame {
	labels := make([]float64, 0, len(records))
	nums := make([][]float64, numURLFeatures)
	for k := range nums {
		nums[k] = make([]float64, 0, len(records))
	}
	tokens := make([]string, 0, len(records))
	for _, rec := range records {
		parts := bytes.Split(rec, []byte("\t"))
		if len(parts) != 3 {
			continue
		}
		y, err := strconv.ParseFloat(string(parts[0]), 64)
		if err != nil || (y != 1 && y != -1) {
			continue
		}
		numParts := bytes.Split(parts[1], []byte(","))
		if len(numParts) != numURLFeatures {
			continue
		}
		rowNums := make([]float64, numURLFeatures)
		ok := true
		for k, np := range numParts {
			if string(np) == "?" {
				rowNums[k] = data.Missing
				continue
			}
			v, err := strconv.ParseFloat(string(np), 64)
			if err != nil {
				ok = false
				break
			}
			rowNums[k] = v
		}
		if !ok {
			continue
		}
		labels = append(labels, y)
		for k := range nums {
			nums[k] = append(nums[k], rowNums[k])
		}
		tokens = append(tokens, string(parts[2]))
	}
	f := data.NewFrame(len(labels))
	f.SetFloat("label", labels)
	for k := range nums {
		f.SetFloat(fmt.Sprintf("num%d", k), nums[k])
	}
	f.SetString("tokens", tokens)
	return f
}

// sameFrame fails unless got and want have the same columns in the same
// order and the same cells, floats compared bit for bit.
func sameFrame(t *testing.T, got, want *data.Frame) {
	t.Helper()
	if !slices.Equal(got.Columns(), want.Columns()) || got.Rows() != want.Rows() {
		t.Fatalf("frame shape: columns %v rows %d, want %v rows %d", got.Columns(), got.Rows(), want.Columns(), want.Rows())
	}
	for _, col := range want.Columns() {
		switch want.KindOf(col) {
		case data.KindFloat:
			g, w := got.Float(col), want.Float(col)
			for i := range w {
				if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
					t.Fatalf("%s[%d] = %v, want %v", col, i, g[i], w[i])
				}
			}
		case data.KindString:
			if g, w := got.String(col), want.String(col); !slices.Equal(g, w) {
				t.Fatalf("%s = %q, want %q", col, g, w)
			}
		default:
			t.Fatalf("unexpected column kind %v", want.KindOf(col))
		}
	}
}

func FuzzTaxiParser(f *testing.F) {
	g := NewTaxi(smallTaxiConfig())
	for _, rec := range g.Chunk(0)[:5] {
		f.Add(rec)
	}
	f.Add([]byte("2015-02-01 00:00:00,2015-02-01 00:10:00,-73.98,40.75,-73.97,40.76,2"))
	f.Add([]byte(",,,,,,"))
	f.Add([]byte("9999-99-99 99:99:99,2015-02-01 00:10:00,0,0,0,0,0"))
	f.Fuzz(func(t *testing.T, rec []byte) {
		frame, err := TaxiParser{}.Parse([][]byte{rec})
		if err != nil {
			t.Fatalf("parser returned error on arbitrary input: %v", err)
		}
		checkParsedFrame(t, frame, func(y float64) bool { return y >= 0 })
		// duration must be non-negative for every surviving row.
		if frame.Has("duration") {
			for _, d := range frame.Float("duration") {
				if d < 0 {
					t.Fatalf("negative duration %v survived parsing", d)
				}
			}
		}
	})
}

func FuzzRatingsParser(f *testing.F) {
	g := NewRatings(smallRatingsConfig())
	for _, rec := range g.Chunk(0)[:5] {
		f.Add(rec)
	}
	f.Add([]byte("u1,i2,3.5"))
	f.Add([]byte("u,i,"))
	f.Add([]byte("u-1,i-1,NaN"))
	f.Fuzz(func(t *testing.T, rec []byte) {
		frame, err := RatingsParser{}.Parse([][]byte{rec})
		if err != nil {
			t.Fatalf("parser returned error on arbitrary input: %v", err)
		}
		checkParsedFrame(t, frame, func(float64) bool { return true })
		// Every surviving row's ids must keep the u/i prefixes the two-hot
		// encoder relies on.
		for i := 0; i < frame.Rows(); i++ {
			u, it := frame.String("user")[i], frame.String("item")[i]
			if len(u) < 2 || u[0] != 'u' || len(it) < 2 || it[0] != 'i' {
				t.Fatalf("malformed ids survived: %q %q", u, it)
			}
		}
	})
}

// FuzzTwoHotEncoder ensures the encoder never panics on surviving parser
// output, even with hostile id payloads.
func FuzzTwoHotEncoder(f *testing.F) {
	f.Add([]byte("u1,i2,3.5"))
	f.Add([]byte("u999999999999999999999,i2,3.5"))
	f.Add([]byte("u0x10,i2,3.5"))
	enc := NewTwoHotEncoder(10, 10, "features")
	f.Fuzz(func(t *testing.T, rec []byte) {
		frame, err := RatingsParser{}.Parse([][]byte{rec})
		if err != nil {
			t.Fatal(err)
		}
		out, err := enc.Transform(frame)
		if err != nil {
			t.Fatalf("encoder error: %v", err)
		}
		for _, v := range out.Vec("features") {
			if v.NNZ() != 2 {
				t.Fatalf("non-2-hot output: %v", v)
			}
		}
	})
}

// Keep a deterministic sanity check that the fuzz seeds parse cleanly (the
// fuzz targets above only run their seed corpus under plain `go test`).
func TestFuzzSeedsParse(t *testing.T) {
	u, _ := URLParser{}.Parse(bytes.Fields([]byte("")))
	if u.Rows() != 0 {
		t.Fatal("empty input should parse to empty frame")
	}
}
