package model

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
)

// Load validates a snapshot's shape against its weights before it builds a
// model: every corrupt shape is an error, never a panic or an allocation
// sized by an unchecked header field.
func TestLoadRejectsCorruptShapes(t *testing.T) {
	cases := []struct {
		name string
		s    snapshot
	}{
		{"svm-dim-negative", snapshot{Kind: "svm", Dim: -1}},
		{"svm-dim-zero", snapshot{Kind: "svm", Dim: 0, Weights: []float64{1}}},
		{"svm-dim-huge", snapshot{Kind: "svm", Dim: 1 << 62, Weights: []float64{1, 2}}},
		{"svm-dim-maxint", snapshot{Kind: "svm", Dim: math.MaxInt, Weights: []float64{1, 2}}},
		{"svm-weights-short", snapshot{Kind: "svm", Dim: 3, Weights: []float64{1, 2, 3}}},
		{"svm-weights-long", snapshot{Kind: "svm", Dim: 1, Weights: []float64{1, 2, 3}}},
		{"svm-reg-negative", snapshot{Kind: "svm", Dim: 1, Reg: -1, Weights: []float64{1, 2}}},
		{"linreg-dim-negative", snapshot{Kind: "linreg", Dim: -1}},
		{"linreg-dim-huge", snapshot{Kind: "linreg", Dim: 1 << 62, Weights: []float64{1}}},
		{"logreg-dim-negative", snapshot{Kind: "logreg", Dim: -1, Weights: []float64{1}}},
		{"logreg-weights-mismatch", snapshot{Kind: "logreg", Dim: 2, Weights: []float64{1, 2, 3, 4}}},
		{"kmeans-k-zero", snapshot{Kind: "kmeans", K: 0, Dim: 2, Weights: []float64{1}}},
		{"kmeans-dim-negative", snapshot{Kind: "kmeans", K: 2, Dim: -1, Weights: []float64{1}}},
		{"kmeans-overflow", snapshot{Kind: "kmeans", K: 4, Dim: 1 << 62, Weights: []float64{1}}},
		{"kmeans-dim-huge", snapshot{Kind: "kmeans", K: 1, Dim: 1 << 62, Weights: []float64{1, 2, 3}}},
		{"kmeans-weights-mismatch", snapshot{Kind: "kmeans", K: 2, Dim: 2, Weights: []float64{1, 2, 3, 4}}},
		{"mf-users-zero", snapshot{Kind: "mf", Users: 0, Items: 1, Factors: 1, Weights: []float64{1}}},
		{"mf-huge", snapshot{Kind: "mf", Users: 1 << 62, Items: 1 << 62, Factors: 1 << 62, Weights: []float64{1}}},
		{"mf-overflow", snapshot{Kind: "mf", Users: 2, Items: 2, Factors: math.MaxInt, Weights: []float64{1, 2, 3, 4, 5}}},
		{"mf-weights-mismatch", snapshot{Kind: "mf", Users: 2, Items: 3, Factors: 2, Weights: make([]float64, 10)}},
		{"unknown-kind", snapshot{Kind: "tree", Dim: 1, Weights: []float64{1, 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(tc.s); err != nil {
				t.Fatal(err)
			}
			if m, err := Load(&buf); err == nil {
				t.Fatalf("Load accepted %+v as %T", tc.s, m)
			}
		})
	}
	// The smallest valid shape of each kind still loads.
	for _, m := range []Model{NewSVM(1, 0), NewKMeans(1, 1), NewMF(1, 1, 1, 0, 0)} {
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err != nil {
			t.Fatalf("%T: %v", m, err)
		}
	}
}
