// Package dataset provides the two workload generators of the evaluation,
// standing in for the real datasets the paper used (see DESIGN.md,
// Substitutions):
//
//   - URL: a sparse, high-dimensional binary classification stream with
//     gradual concept drift and a feature set that grows over time,
//     mirroring the malicious-URL dataset of Ma et al. [22]. It feeds the
//     parser → imputer → standard scaler → feature hasher → SVM pipeline.
//   - Taxi: a dense tabular regression stream of synthetic NYC-like taxi
//     trips with a stationary distribution and injected anomalies. It feeds
//     the parser → feature extractor → anomaly filter → scaler → one-hot →
//     assembler → linear regression pipeline.
//
// Generators are deterministic given a seed, and each chunk is generated
// independently (seeded by chunk index), so experiments are reproducible
// and chunks can be regenerated in any order.
package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"cdml/internal/data"
	"cdml/internal/model"
	"cdml/internal/pipeline"
)

// URLConfig parameterizes the URL-like stream.
type URLConfig struct {
	// Days is the number of deployment days (the paper's URL dataset spans
	// 121 days: day 0 trains the initial model, days 1–120 deploy).
	Days int
	// ChunksPerDay discretizes each day.
	ChunksPerDay int
	// RowsPerChunk is the number of records per chunk.
	RowsPerChunk int
	// Vocab is the token vocabulary size (the real dataset's feature count
	// scaled down).
	Vocab int
	// TokensPerRow is the average number of tokens per record.
	TokensPerRow int
	// HashDim is the feature-hashing dimensionality of the pipeline.
	HashDim int
	// Drift scales the gradual concept drift (0 disables it).
	Drift float64
	// NoiseRate is the label-flip probability.
	NoiseRate float64
	// Seed makes the stream reproducible.
	Seed int64
}

// DefaultURLConfig returns the scaled-down deployment scenario: 120 days of
// 10 chunks, 150 rows each (the paper uses 12,000 chunks of ~200 rows).
func DefaultURLConfig() URLConfig {
	return URLConfig{
		Days:         120,
		ChunksPerDay: 10,
		RowsPerChunk: 150,
		Vocab:        20000,
		TokensPerRow: 15,
		HashDim:      1 << 18,
		Drift:        0.8,
		NoiseRate:    0.03,
		Seed:         42,
	}
}

// numURLFeatures is the count of numeric per-record features (URL length,
// digit count, dot count, subdomain depth in the real dataset's spirit).
const numURLFeatures = 4

// URL generates the URL-like stream.
type URL struct {
	cfg URLConfig

	baseW  []float64 // per-token base weight
	ampW   []float64 // per-token cyclic drift amplitude
	trendW []float64 // per-token directional drift slope
	phase  []float64 // per-token drift phase
	birth  []float64 // per-token activation day (growing feature set)
	numW   []float64 // weights of the numeric features
	popExp float64   // token popularity skew
}

// NewURL returns a generator for the given config.
func NewURL(cfg URLConfig) *URL {
	if cfg.Days <= 0 || cfg.ChunksPerDay <= 0 || cfg.RowsPerChunk <= 0 || cfg.Vocab <= 0 {
		panic(fmt.Sprintf("dataset: invalid URL config %+v", cfg))
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	u := &URL{
		cfg:    cfg,
		baseW:  make([]float64, cfg.Vocab),
		ampW:   make([]float64, cfg.Vocab),
		trendW: make([]float64, cfg.Vocab),
		phase:  make([]float64, cfg.Vocab),
		birth:  make([]float64, cfg.Vocab),
		numW:   make([]float64, numURLFeatures),
		popExp: 2.5,
	}
	for i := 0; i < cfg.Vocab; i++ {
		u.baseW[i] = r.NormFloat64()
		u.ampW[i] = cfg.Drift * r.NormFloat64()
		// Directional component: by the end of the deployment a token's
		// weight has moved ~2·Drift standard deviations from where it
		// started, so old chunks genuinely go stale (the paper observes
		// the URL dataset's characteristics gradually change over time).
		u.trendW[i] = 2 * cfg.Drift * r.NormFloat64()
		u.phase[i] = 2 * math.Pi * r.Float64()
		// 30% of tokens exist from day 0; the rest appear gradually over
		// the first 80% of the deployment (the dataset's growing feature
		// set).
		if r.Float64() < 0.3 {
			u.birth[i] = 0
		} else {
			u.birth[i] = r.Float64() * 0.8 * float64(cfg.Days)
		}
	}
	for i := range u.numW {
		u.numW[i] = 1.5 * r.NormFloat64()
	}
	return u
}

// Name identifies the generator.
func (u *URL) Name() string { return "url" }

// NumChunks returns the total deployment chunk count.
func (u *URL) NumChunks() int { return u.cfg.Days * u.cfg.ChunksPerDay }

// RowsPerChunk returns the configured chunk size.
func (u *URL) RowsPerChunk() int { return u.cfg.RowsPerChunk }

// tokenWeight returns the drifting true weight of token tok on a given
// day: a fixed base, a slow cycle, and a directional trend.
func (u *URL) tokenWeight(tok int, day float64) float64 {
	period := float64(u.cfg.Days)
	return u.baseW[tok] +
		u.ampW[tok]*math.Sin(2*math.Pi*day/period+u.phase[tok]) +
		u.trendW[tok]*day/period
}

// Chunk generates the raw records of chunk i. Record format (tab-separated):
//
//	label \t num0,num1,num2,num3 \t tok_A tok_B ...
//
// where label is +1/-1, numeric fields may be "?" (missing, ~4%), and
// tokens are symbolic feature names.
func (u *URL) Chunk(i int) [][]byte {
	if i < 0 || i >= u.NumChunks() {
		panic(fmt.Sprintf("dataset: URL chunk %d out of range [0,%d)", i, u.NumChunks()))
	}
	r := rand.New(rand.NewSource(u.cfg.Seed ^ (0x9e3779b9 * int64(i+1))))
	day := float64(i) / float64(u.cfg.ChunksPerDay)
	records := make([][]byte, u.cfg.RowsPerChunk)
	var buf bytes.Buffer
	for row := range records {
		buf.Reset()
		// Draw tokens from the active vocabulary with a popularity skew:
		// token index ~ floor(V * u^popExp) favors low indices.
		nTok := 1 + r.Intn(2*u.cfg.TokensPerRow)
		toks := make([]int, 0, nTok)
		score := 0.0
		for len(toks) < nTok {
			tok := int(float64(u.cfg.Vocab) * math.Pow(r.Float64(), u.popExp))
			if tok >= u.cfg.Vocab {
				tok = u.cfg.Vocab - 1
			}
			if u.birth[tok] > day {
				continue // not yet in the feature set
			}
			toks = append(toks, tok)
			score += u.tokenWeight(tok, day)
		}
		score /= math.Sqrt(float64(len(toks)))
		// Numeric features, standardized at the source, contribute too.
		nums := make([]float64, numURLFeatures)
		for k := range nums {
			nums[k] = r.NormFloat64()
			score += u.numW[k] * nums[k]
		}
		label := 1
		if score+0.2*r.NormFloat64() < 0 {
			label = -1
		}
		if r.Float64() < u.cfg.NoiseRate {
			label = -label
		}
		// Serialize.
		if label > 0 {
			buf.WriteString("+1\t")
		} else {
			buf.WriteString("-1\t")
		}
		for k, v := range nums {
			if k > 0 {
				buf.WriteByte(',')
			}
			if r.Float64() < 0.04 {
				buf.WriteByte('?') // missing value for the imputer
			} else {
				buf.WriteString(strconv.FormatFloat(v, 'f', 4, 64))
			}
		}
		buf.WriteByte('\t')
		for k, tok := range toks {
			if k > 0 {
				buf.WriteByte(' ')
			}
			fmt.Fprintf(&buf, "t%d", tok)
		}
		records[row] = append([]byte(nil), buf.Bytes()...)
	}
	return records
}

// URLParser parses URL records into a frame with float columns
// "num0".."num3" (Missing for "?"), string column "tokens", and float
// column "label" (+1/−1).
type URLParser struct{}

// urlNumCols names the numeric columns.
var urlNumCols = [numURLFeatures]string{"num0", "num1", "num2", "num3"}

// Name implements pipeline.Parser.
func (URLParser) Name() string { return "url-parser" }

// Parse implements pipeline.Parser; malformed records are dropped. Its
// allocation count does not depend on the number of records: the columns
// are sized once, and the kept rows' token fields are copied into one
// string that each row's token cell is a substring of.
func (URLParser) Parse(records [][]byte) (*data.Frame, error) {
	labels := make([]float64, 0, len(records))
	var nums [numURLFeatures][]float64
	for k := range nums {
		nums[k] = make([]float64, 0, len(records))
	}
	toks := make([][]byte, 0, len(records)) // kept rows' token fields, aliasing records
	tokBytes := 0
	for _, rec := range records {
		label, rest, ok := cutByte(rec, '\t')
		if !ok {
			continue
		}
		numField, tokField, ok := cutByte(rest, '\t')
		if !ok || bytes.IndexByte(tokField, '\t') >= 0 {
			continue
		}
		y, err := strconv.ParseFloat(string(label), 64)
		//lint:allow floateq: class labels are exactly ±1 on the wire
		if err != nil || (y != 1 && y != -1) {
			continue
		}
		if !appendURLNums(&nums, numField) {
			for k := range nums {
				nums[k] = nums[k][:len(labels)]
			}
			continue
		}
		labels = append(labels, y)
		toks = append(toks, tokField)
		tokBytes += len(tokField)
	}
	var all strings.Builder
	all.Grow(tokBytes)
	for _, t := range toks {
		all.Write(t)
	}
	text := all.String()
	tokens := make([]string, len(toks))
	off := 0
	for i, t := range toks {
		tokens[i] = text[off : off+len(t)]
		off += len(t)
	}
	f := data.NewFrame(len(labels))
	f.SetFloat("label", labels)
	for k := range nums {
		f.SetFloat(urlNumCols[k], nums[k])
	}
	f.SetString("tokens", tokens)
	return f, nil
}

// appendURLNums parses the comma-separated numeric field of one record onto
// the numeric columns. It reports false when the field is malformed; the
// columns may then hold a partial row the caller must cut off.
func appendURLNums(nums *[numURLFeatures][]float64, field []byte) bool {
	for k := range nums {
		var np []byte
		if k < numURLFeatures-1 {
			var ok bool
			if np, field, ok = cutByte(field, ','); !ok {
				return false
			}
		} else if np = field; bytes.IndexByte(np, ',') >= 0 {
			return false
		}
		v := data.Missing
		if string(np) != "?" {
			var err error
			if v, err = strconv.ParseFloat(string(np), 64); err != nil {
				return false
			}
		}
		nums[k] = append(nums[k], v)
	}
	return true
}

// cutByte slices b around the first instance of c.
func cutByte(b []byte, c byte) (before, after []byte, found bool) {
	if i := bytes.IndexByte(b, c); i >= 0 {
		return b[:i], b[i+1:], true
	}
	return b, nil, false
}

// URLNumCols returns the numeric column names the URL pipeline scales.
func URLNumCols() []string {
	return slices.Clone(urlNumCols[:])
}

// NewURLPipeline constructs the paper's URL pipeline: input parser →
// missing-value imputer → standard scaler → feature hasher (into the
// configured dimensionality). The SVM model is created separately with
// NewURLModel.
func NewURLPipeline(hashDim int) *pipeline.Pipeline {
	numCols := URLNumCols()
	return pipeline.New(URLParser{},
		pipeline.NewImputer(numCols, nil),
		pipeline.NewStandardScaler(numCols),
		pipeline.NewFeatureHasher([]string{"tokens"}, numCols, "features", hashDim),
	)
}

// NewURLModel constructs the URL pipeline's SVM over the hashed feature
// space.
func NewURLModel(hashDim int, reg float64) *model.SVM {
	return model.NewSVM(hashDim, reg)
}
