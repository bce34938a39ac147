package model

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// snapshot is the serialized form of a model. Only weights and the
// constructor parameters are persisted; optimizer state is snapshotted
// separately via opt.Optimizer.Clone when warm starting in process.
type snapshot struct {
	Kind    string
	Dim     int
	Reg     float64
	Weights []float64
	K       int // k-means only
	Users   int // MF only
	Items   int // MF only
	Factors int // MF only
}

// Save serializes a model to w with encoding/gob.
func Save(w io.Writer, m Model) error {
	s := snapshot{Dim: m.Dim(), Weights: m.Weights()}
	switch t := m.(type) {
	case *SVM:
		s.Kind, s.Reg = "svm", t.Reg()
	case *LinearRegression:
		s.Kind, s.Reg = "linreg", t.Reg()
	case *LogisticRegression:
		s.Kind, s.Reg = "logreg", t.Reg()
	case *KMeans:
		s.Kind, s.K, s.Dim = "kmeans", t.K, t.FeatureDim
	case *MF:
		s.Kind, s.Reg = "mf", t.Reg()
		s.Users, s.Items, s.Factors = t.Users, t.Items, t.Factors
	default:
		return fmt.Errorf("model: cannot save unknown model type %T", m)
	}
	if err := gob.NewEncoder(w).Encode(s); err != nil {
		return fmt.Errorf("model: encoding %s: %w", s.Kind, err)
	}
	return nil
}

// Load deserializes a model written by Save. The snapshot's shape is
// checked against its weight count before any model is allocated, so a
// corrupt or hostile snapshot returns an error instead of panicking or
// driving an oversized allocation.
func Load(r io.Reader) (Model, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("model: decoding: %w", err)
	}
	if s.Reg < 0 {
		return nil, fmt.Errorf("model: corrupt %s snapshot (negative regularization %v)", s.Kind, s.Reg)
	}
	// w is the weight count without the bias, the product the shape must
	// reproduce.
	w := len(s.Weights) - 1
	var m Model
	switch s.Kind {
	case "svm", "linreg", "logreg":
		if s.Dim < 1 || s.Dim != w {
			return nil, fmt.Errorf("model: corrupt %s snapshot (dim=%d weights=%d)", s.Kind, s.Dim, len(s.Weights))
		}
		switch s.Kind {
		case "svm":
			m = NewSVM(s.Dim, s.Reg)
		case "linreg":
			m = NewLinearRegression(s.Dim, s.Reg)
		default:
			m = NewLogisticRegression(s.Dim, s.Reg)
		}
	case "kmeans":
		if !productIs(s.K, s.Dim, w) {
			return nil, fmt.Errorf("model: corrupt k-means snapshot (k=%d dim=%d weights=%d)", s.K, s.Dim, len(s.Weights))
		}
		m = NewKMeans(s.K, s.Dim)
	case "mf":
		// dim = users + items + (users+items)*factors. Bounding each term
		// by w first keeps the sum and factors+1 from overflowing.
		if s.Users < 1 || s.Items < 1 || s.Factors < 1 || s.Users > w || s.Items > w || s.Factors > w ||
			!productIs(s.Users+s.Items, s.Factors+1, w) {
			return nil, fmt.Errorf("model: corrupt MF snapshot (%d users, %d items, %d factors, %d weights)", s.Users, s.Items, s.Factors, len(s.Weights))
		}
		m = NewMF(s.Users, s.Items, s.Factors, s.Reg, 0)
	default:
		return nil, fmt.Errorf("model: unknown model kind %q", s.Kind)
	}
	m.SetWeights(s.Weights)
	return m, nil
}

// productIs reports whether a*b == p for positive a and b, without
// computing a product that could overflow.
func productIs(a, b, p int) bool {
	return a >= 1 && b >= 1 && p%a == 0 && p/a == b
}

// SaveFile writes a model to path atomically.
func SaveFile(path string, m Model) error {
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("model: writing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("model: renaming %s: %w", tmp, err)
	}
	return nil
}

// LoadFile reads a model written by SaveFile.
func LoadFile(path string) (Model, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("model: reading %s: %w", path, err)
	}
	return Load(bytes.NewReader(b))
}
