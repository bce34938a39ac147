package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN when xs is empty. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sample is one measured value and the due time of the request it
// belongs to.
type sample struct {
	due time.Duration
	v   float64
}

// latencies returns done-due in milliseconds of the successful outcomes of
// kind k.
func latencies(outs []outcome, k kind) []sample {
	var xs []sample
	for _, o := range outs {
		if o.kind == k && o.sent >= 0 && !o.failed {
			xs = append(xs, sample{o.due, ms(o.done - o.due)})
		}
	}
	return xs
}

// slice is one one-second slice of a nominal window: a quantile of the
// samples due in it, and the share of the machine's CPU time the
// hypervisor stole during it.
type slice struct{ v, steal float64 }

// sliceQuantiles returns, for each one-second slice of [start,
// start+length) that holds samples, the q-quantile of the samples due in
// it and the slice's steal share.
func sliceQuantiles(xs []sample, start, length time.Duration, q float64, steal stealClock) []slice {
	var per []slice
	n := max(int(length/time.Second), 1)
	for i := 0; i < n; i++ {
		lo := start + length*time.Duration(i)/time.Duration(n)
		hi := start + length*time.Duration(i+1)/time.Duration(n)
		var in []float64
		for _, x := range xs {
			if x.due >= lo && x.due < hi {
				in = append(in, x.v)
			}
		}
		if len(in) > 0 {
			per = append(per, slice{quantile(in, q), steal.share(lo, hi)})
		}
	}
	return per
}

// quietMedian returns the median over the half of the slices in which the
// hypervisor stole the least CPU time (ties in slice order). On a shared
// host another guest's load comes and goes by the second and slows every
// request it meets; the slices it spared measure the program, and ranking
// by steal, which the program does not set, keeps the choice independent
// of the measured values. The median over the slices then keeps a stall
// from deciding a quantile unless it spoils most of them.
func quietMedian(ss []slice) float64 {
	ss = slices.Clone(ss)
	slices.SortStableFunc(ss, func(a, b slice) int { return cmp.Compare(a.steal, b.steal) })
	vs := make([]float64, (len(ss)+1)/2)
	for i := range vs {
		vs[i] = ss[i].v
	}
	return median(vs)
}

// stealClock is the machine's cumulative steal and total CPU ticks
// (/proc/stat), sampled through a window.
type stealClock []stealSample

type stealSample struct {
	at           time.Duration
	steal, total uint64
}

// share returns the share of the machine's CPU ticks in [lo, hi) that were
// stolen, from the last sample at or before lo to the first at or after
// hi; 0 without samples spanning ticks.
func (c stealClock) share(lo, hi time.Duration) float64 {
	if len(c) == 0 {
		return 0
	}
	a, b := c[0], c[len(c)-1]
	for _, s := range c {
		if s.at <= lo {
			a = s
		}
		if s.at >= hi {
			b = s
			break
		}
	}
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// sampleSteal samples the machine's steal every stealEvery until stop is
// closed.
func (g *gen) sampleSteal(stop <-chan struct{}) stealClock {
	t := time.NewTicker(stealEvery)
	defer t.Stop()
	var c stealClock
	for {
		st, tot := cpuSteal()
		c = append(c, stealSample{g.since(), st, tot})
		select {
		case <-stop:
			return c
		case <-t.C:
		}
	}
}

// stealEvery is how often sampleSteal reads /proc/stat; its counters tick
// every 10 ms per CPU.
const stealEvery = 100 * time.Millisecond

// lateness returns, in milliseconds, how late the generator sent each
// predict and ingest request after its due time.
func lateness(outs []outcome) []float64 {
	var xs []float64
	for _, o := range outs {
		if (o.kind == kPredict || o.kind == kIngest) && o.sent >= 0 {
			xs = append(xs, ms(o.sent-o.due))
		}
	}
	return xs
}
