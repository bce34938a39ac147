package dataset

import "testing"

// The allocation budgets below are exact per-layer counts: a change that
// makes parsing or the online pipeline allocate per record fails here
// before it shows up as deployment cost.

// budgetURLChunk is the 200-record chunk of BenchmarkPipelineProcessOnline.
func budgetURLChunk() (URLConfig, [][]byte) {
	cfg := DefaultURLConfig()
	cfg.Days, cfg.ChunksPerDay, cfg.RowsPerChunk, cfg.Vocab = 2, 2, 200, 2000
	cfg.HashDim = 1 << 14
	return cfg, NewURL(cfg).Chunk(0)
}

func TestURLParserAllocsConstantInRows(t *testing.T) {
	_, records := budgetURLChunk()
	parse := func(recs [][]byte) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := (URLParser{}).Parse(recs); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := parse(records[:8]), parse(records)
	if small != large {
		t.Fatalf("URLParser.Parse allocs: %v at 8 rows, %v at 200 rows; want equal", small, large)
	}
}

func TestURLParserMatchesReference(t *testing.T) {
	g := NewURL(smallURLConfig())
	var records [][]byte
	for i := 0; i < 4; i++ {
		records = append(records, g.Chunk(i)...)
	}
	// Malformed rows between good ones exercise the rejected-row paths.
	for _, bad := range []string{"+1\t1,2,3\tt1", "+1\t1,2,3,4,5\tt1", "+1\t1,x,3,4\tt1", "0\t1,2,3,4\tt1",
		"+1\t1,2,3,4\tt1\tt2", "+1\t1,2,3,4", "", "-1\t?,?,?,?\t", "+1\t1,,3,4\tt1"} {
		records = append(records, []byte(bad), records[len(records)/2])
	}
	got, err := URLParser{}.Parse(records)
	if err != nil {
		t.Fatal(err)
	}
	sameFrame(t, got, referenceURLParse(records))
	if want := 4*smallURLConfig().RowsPerChunk + 9 + 1; got.Rows() != want {
		t.Fatalf("kept %d rows, want %d", got.Rows(), want)
	}
}

func TestProcessOnlineAllocBudget(t *testing.T) {
	cfg, records := budgetURLChunk()
	pipe := NewURLPipeline(cfg.HashDim)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := pipe.ProcessOnline(records); err != nil {
			t.Fatal(err)
		}
	})
	if max := float64(len(records)); allocs > max {
		t.Fatalf("ProcessOnline allocs = %v on %d records, want ≤ %v (one per record)", allocs, len(records), max)
	}
	t.Logf("ProcessOnline: %v allocs for %d records", allocs, len(records))
}
