package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// runFeedDurable is feed-durable: three durable members, half cluster and
// half pinned-dt sessions fed uniformly spread batches. Per-feed model
// work is small, so decode, the write-ahead log, compaction, serving and
// the router hop carry the time.
func runFeedDurable(e *env) (*result, error) {
	n := int(e.param("sessions"))
	rows := int(e.param("batch_rows"))
	shape := servingShape{
		durable: true,
		kinds:   []string{kindFeed},
		pick:    func(rng *rand.Rand) int { return rng.Intn(n) },
		probes:  []int{0, 1, 2, 3, 4, 5, 6, 7},
		sessions: func(rng *rand.Rand, nBatches []int) ([]*session, error) {
			var out []*session
			for i := 0; i < n; i++ {
				var s *session
				var err error
				if i%2 == 0 {
					s, err = clusterSession(fmt.Sprintf("cl-%02d", i), i, rng, int(e.param("cluster_reference_rows")), rows, nBatches[i])
				} else {
					s, err = dtSession(fmt.Sprintf("dt-%02d", i), i, rng, int(e.param("dt_reference_rows")), rows, nBatches[i])
				}
				if err != nil {
					return nil, err
				}
				out = append(out, s)
			}
			return out, nil
		},
	}
	return runServing(e, shape, n)
}

// runLitsMonitorReads is lits-monitor-reads: three in-memory members with
// lits sessions of Zipf-skewed popularity, one in eight qualifying every
// report, fed in an open loop interleaved with reports and summary reads.
// Window mining, measurement and the bootstrap carry the feed cost; the
// write-ahead log is not involved.
func runLitsMonitorReads(e *env) (*result, error) {
	n := int(e.param("sessions"))
	cdf := zipfCDF(n, e.param("zipf_s"))
	var kinds []string
	feeds := int(e.param("feeds_per_cycle"))
	for i := 0; i < feeds; i++ {
		kinds = append(kinds, kindFeed)
		if i == feeds/2-1 {
			kinds = append(kinds, repeat(kindReports, int(e.param("reports_per_cycle")))...)
		}
	}
	kinds = append(kinds, repeat(kindSummary, int(e.param("summaries_per_cycle")))...)
	every := int(e.param("qualified_every"))
	shape := servingShape{
		kinds: kinds,
		pick: func(rng *rand.Rand) int {
			return sort.SearchFloat64s(cdf, rng.Float64())
		},
		probes: []int{0, 2, 5},
		sessions: func(rng *rand.Rand, nBatches []int) ([]*session, error) {
			var out []*session
			for i := 0; i < n; i++ {
				qualified := i%every == 2
				minSup := e.param("min_support_lo")
				if i%2 == 1 {
					minSup = e.param("min_support_hi")
				}
				// The bootstrap of a session's first report resamples its
				// one-batch window with replacement, where an itemset is
				// frequent with ceil(128 x support) copies: 3 at 0.02, so a
				// long transaction drawn three times made every subset of it
				// frequent, and that report took from 10 ms to over 1 s by
				// seed. Qualified sessions mine at a support where it cannot.
				if qualified {
					minSup = e.param("min_support_qualified")
				}
				s, err := litsSession(fmt.Sprintf("lits-%02d", i), i, rng, minSup, qualified,
					int(e.param("reference_txns")), int(e.param("batch_txns")), nBatches[i])
				if err != nil {
					return nil, err
				}
				out = append(out, s)
			}
			return out, nil
		},
	}
	return runServing(e, shape, n)
}

// zipfCDF is the cumulative distribution of a Zipf law with exponent s
// over ranks 1..n; session i has rank i+1.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[n-1] = 1
	return cdf
}

func repeat(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}
