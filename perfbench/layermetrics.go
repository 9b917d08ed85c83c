package main

import "time"

// layerMetrics derives the per-layer metrics of a traced run from its
// spans and counters. Metrics a run set directly (runtime samples, data
// directory scans, trace overhead) are kept; a layer the workload does
// not exercise reads 0 with no samples.
func layerMetrics(e *env, res *result) {
	st := newSpanStats(e.tr.Spans())
	ctr := e.tr.Counter
	setP := func(metric, span string, q float64, unit time.Duration) {
		if n := st.count(span); n > 0 {
			res.set(metric, st.p(span, q, unit), n)
		}
	}
	setTotal := func(metric, span string, unit time.Duration) {
		if n := st.count(span); n > 0 {
			res.set(metric, st.total(span, unit), n)
		}
	}
	ratio := func(metric string, num, den float64, n int) {
		if den > 0 {
			res.set(metric, num/den, n)
		}
	}

	// The request span's self time is the wait before a connection took
	// the request: the generator's lateness.
	if late := st.selfs("loadgen.request"); len(late) > 0 {
		res.set("loadgen.late_p99_ms", percentile(late, 0.99)/1e6, len(late))
	}
	sent := st.count("fleet.feed") + st.count("fleet.reports") + st.count("fleet.summary")
	if sent > 0 {
		res.set("loadgen.sent", float64(sent), sent)
	}

	if n := st.count("fleet.probe_feed"); n > 0 {
		routed := st.p("fleet.probe_feed", 0.5, time.Millisecond)
		direct := st.p("serve.http_feed", 0.5, time.Millisecond)
		local := st.p("serve.feed", 0.5, time.Millisecond)
		res.set("fleet.hop_p50_ms", routed-direct, n)
		res.set("serve.http_p50_ms", direct-local, n)
	}
	setP("fleet.scatter_p50_ms", "fleet.summary", 0.5, time.Millisecond)
	if calls := sent + st.count("fleet.probe_feed") + st.count("fleet.create"); calls > 0 {
		res.set("fleet.calls", float64(calls), calls)
	}

	setP("serve.feed_p50_us", "serve.feed", 0.5, time.Microsecond)
	setP("serve.feed_p99_us", "serve.feed", 0.99, time.Microsecond)
	setTotal("serve.feed_busy_s", "serve.feed", time.Second)
	setP("serve.create_p50_ms", "serve.create", 0.5, time.Millisecond)
	setTotal("serve.open_s", "serve.open", time.Second)
	setP("serve.reports_p50_us", "serve.reports", 0.5, time.Microsecond)

	setP("wal.append_p50_us", "wal.append", 0.5, time.Microsecond)
	setP("wal.append_p99_us", "wal.append", 0.99, time.Microsecond)
	setP("wal.sync_p50_ms", "wal.sync", 0.5, time.Millisecond)
	ratio("wal.bytes_per_feed", float64(ctr("wal.bytes")), float64(st.count("wal.append")), st.count("wal.append"))

	setP("dataset.decode_p50_us", "dataset.decode", 0.5, time.Microsecond)
	setP("txn.decode_p50_us", "txn.decode", 0.5, time.Microsecond)

	setP("stream.ingest_p50_us", "stream.ingest", 0.5, time.Microsecond)
	setP("stream.ingest_p99_us", "stream.ingest", 0.99, time.Microsecond)

	setP("core.window_induce_p50_us", "core.window_induce", 0.5, time.Microsecond)
	setP("core.measure_gcr_p50_us", "core.measure_gcr", 0.5, time.Microsecond)
	setTotal("core.observed_s", "core.observed", time.Second)
	setTotal("core.qualify_s", "core.qualify", time.Second)
	measures := ctr("core.gcr_measures")
	ratio("core.gcr_regions", float64(ctr("core.gcr_regions")), float64(measures), int(measures))

	setTotal("apriori.mine_s", "apriori.mine", time.Second)
	setTotal("apriori.vertical_build_ms", "apriori.vertical_build", time.Millisecond)
	setTotal("apriori.count_s", "apriori.count", time.Second)
	ratio("apriori.itemsets", float64(ctr("apriori.itemsets")), float64(ctr("apriori.mines")), int(ctr("apriori.mines")))

	setTotal("dtree.build_s", "dtree.build", time.Second)
	ratio("dtree.leaves", float64(ctr("dtree.leaves")), float64(st.count("dtree.build")), st.count("dtree.build"))

	setP("cluster.cellcounts_p50_us", "cluster.cellcounts", 0.5, time.Microsecond)

	if n := st.count("core.qualify"); n > 0 {
		boot := st.total("core.qualify", time.Second) - st.total("core.observed", time.Second)
		res.set("stats.bootstrap_s", boot, n)
		ratio("stats.replicates_per_s", float64(ctr("stats.replicates")), boot, n)
	}
}
