package main

// metricDef is one row of the benchmark's metric catalogue. It is the
// single source for names, units, directions and bounds: BENCHMARK.json
// repeats it for the driver, and the package test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Layer  string  // per-layer only: the package measured
	Moves  string  // per-layer only: the end-to-end metric it should move, and where
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "time_to_eps_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rounds_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "rounds_to_eps", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "bytes_to_eps", Unit: "bytes", Better: "lower", Bound: 0.05},
	{Name: "predict_rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.25},
	{Name: "predict_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "predict_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// ungatedEndToEnd is measured, printed and kept in reports, but
// BENCHMARK.json leaves it out: where a request mostly waits on a timer
// its p99 is the box's scheduling delay, and read 3.0 ms in quiet minutes
// and 4 to 5.6 ms in busy ones (three runs in ten), past any bound.
var ungatedEndToEnd = []metricDef{
	{Name: "predict_p99_ms", Unit: "ms", Better: "lower"},
}

var perLayer = []metricDef{
	// Per node-round, from the shadow round driver's spans.
	{Name: "core.build_update_us", Unit: "us", Better: "lower", Layer: "core", Moves: "rounds_per_s on tcp-svm-k5"},
	{Name: "codec.encode_us", Unit: "us", Better: "lower", Layer: "codec", Moves: "rounds_per_s on tcp-mlp-k3"},
	{Name: "transport.broadcast_us", Unit: "us", Better: "lower", Layer: "transport", Moves: "rounds_per_s, time_to_eps_s on tcp-svm-k5"},
	{Name: "transport.gather_wait_us", Unit: "us", Better: "lower", Layer: "transport", Moves: "time_to_eps_s on tcp-svm-k5-wan"},
	{Name: "codec.decode_us", Unit: "us", Better: "lower", Layer: "codec", Moves: "rounds_per_s on tcp-mlp-k3"},
	{Name: "core.ingest_us", Unit: "us", Better: "lower", Layer: "core", Moves: "rounds_per_s on tcp-mlp-k3"},
	{Name: "core.gradient_us", Unit: "us", Better: "lower", Layer: "core", Moves: "rounds_per_s, time_to_eps_s on tcp-mlp-k3"},
	{Name: "core.step_mix_us", Unit: "us", Better: "lower", Layer: "core", Moves: "rounds_per_s on tcp-mlp-k3"},
	{Name: "core.local_loss_us", Unit: "us", Better: "lower", Layer: "core", Moves: "rounds_per_s on tcp-mlp-k3, sim-svm-n20"},
	{Name: "core.driver_residual_us", Unit: "us", Better: "lower", Layer: "core", Moves: "rounds_per_s, time_to_eps_s on tcp-svm-k5"},
	{Name: "core.allocs_per_round", Unit: "count", Better: "lower", Layer: "core", Moves: "rounds_per_s on tcp-svm-k5"},
	{Name: "codec.frame_bytes", Unit: "bytes", Better: "lower", Layer: "codec", Moves: "bytes_to_eps everywhere"},
	{Name: "codec.selected_frac", Unit: "ratio", Better: "lower", Layer: "codec", Moves: "bytes_to_eps everywhere"},
	{Name: "transport.frames_per_round", Unit: "count", Better: "lower", Layer: "transport", Moves: "bytes_to_eps everywhere"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "none: shadow wall over production wall, minus one"},
	{Name: "trace.layer_sum_frac", Unit: "ratio", Better: "higher", Layer: "trace", Moves: "none: share of the shadow round the nine layer times explain"},
	// Per request, from the layer-by-layer serving pass.
	{Name: "serve.net_self_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "predict_p50_ms on every workload"},
	{Name: "serve.http_self_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "predict_rows_per_s, predict_p50_ms on serve-mlp-batch32"},
	{Name: "serve.queue_self_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "predict_p50_ms, predict_p95_ms on the one-row serving halves"},
	{Name: "serve.model_self_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "predict_rows_per_s on serve-mlp-batch32"},
	{Name: "serve.batch_rows_mean", Unit: "rows", Better: "higher", Layer: "serve", Moves: "predict_rows_per_s on the one-row serving halves"},
	{Name: "serve.reject_frac", Unit: "ratio", Better: "lower", Layer: "serve", Moves: "failed on every workload"},
	{Name: "serve.swaps_per_s", Unit: "1/s", Better: "higher", Layer: "serve", Moves: "none: publisher cadence actually achieved"},
	// Isolated calls at the workloads' shapes.
	{Name: "linalg.mix_to_ns_per_param", Unit: "ns", Better: "lower", Layer: "linalg", Moves: "rounds_per_s on tcp-mlp-k3"},
	{Name: "linalg.axpy_to_ns_per_param", Unit: "ns", Better: "lower", Layer: "linalg", Moves: "rounds_per_s on tcp-mlp-k3"},
	{Name: "linalg.dist_inf_ns_per_param", Unit: "ns", Better: "lower", Layer: "linalg", Moves: "rounds_per_s on sim-svm-n20"},
	{Name: "linalg.sym_eigen_n20_us", Unit: "us", Better: "lower", Layer: "linalg", Moves: "setup_s on sim-svm-n20"},
	{Name: "model.svm_gradient_ns_per_sample", Unit: "ns", Better: "lower", Layer: "model", Moves: "rounds_per_s on sim-svm-n20"},
	{Name: "model.mlp_gradient_us_per_sample", Unit: "us", Better: "lower", Layer: "model", Moves: "rounds_per_s, time_to_eps_s on tcp-mlp-k3"},
	{Name: "model.svm_loss_ns_per_sample", Unit: "ns", Better: "lower", Layer: "model", Moves: "rounds_per_s on sim-svm-n20"},
	{Name: "model.mlp_loss_us_per_sample", Unit: "us", Better: "lower", Layer: "model", Moves: "rounds_per_s on tcp-mlp-k3"},
	{Name: "model.svm_predict_ns_per_row", Unit: "ns", Better: "lower", Layer: "model", Moves: "none expected: the model is free on the one-row serving halves"},
	{Name: "model.mlp_predict_us_per_row", Unit: "us", Better: "lower", Layer: "model", Moves: "predict_rows_per_s on serve-mlp-batch32"},
	{Name: "codec.diff_into_ns_per_param", Unit: "ns", Better: "lower", Layer: "codec", Moves: "rounds_per_s on tcp-mlp-k3"},
	{Name: "codec.encode_ns_per_param", Unit: "ns", Better: "lower", Layer: "codec", Moves: "rounds_per_s on tcp-mlp-k3"},
	{Name: "codec.decode_ns_per_param", Unit: "ns", Better: "lower", Layer: "codec", Moves: "rounds_per_s on tcp-mlp-k3"},
	{Name: "codec.encode_small_ns", Unit: "ns", Better: "lower", Layer: "codec", Moves: "rounds_per_s on tcp-svm-k5"},
	{Name: "codec.decode_small_ns", Unit: "ns", Better: "lower", Layer: "codec", Moves: "rounds_per_s on tcp-svm-k5"},
	{Name: "transport.sim_exchange_us", Unit: "us", Better: "lower", Layer: "transport", Moves: "rounds_per_s on sim-svm-n20"},
	{Name: "transport.peer_rtt_small_us", Unit: "us", Better: "lower", Layer: "transport", Moves: "rounds_per_s, time_to_eps_s on tcp-svm-k5"},
	{Name: "transport.peer_rtt_large_us", Unit: "us", Better: "lower", Layer: "transport", Moves: "rounds_per_s on tcp-mlp-k3"},
	{Name: "weights.metropolis_n20_us", Unit: "us", Better: "lower", Layer: "weights", Moves: "setup_s on the TCP workloads"},
	{Name: "weights.optimize_best_n20_ms", Unit: "ms", Better: "lower", Layer: "weights", Moves: "setup_s on sim-svm-n20"},
	{Name: "baseline.centralized_iter_us", Unit: "us", Better: "lower", Layer: "baseline", Moves: "none: the off-the-clock reference solve"},
	{Name: "obs.observe_ns", Unit: "ns", Better: "lower", Layer: "obs", Moves: "rounds_per_s on tcp-svm-k5"},
	{Name: "obs.emit_off_ns", Unit: "ns", Better: "lower", Layer: "obs", Moves: "rounds_per_s on tcp-svm-k5"},
	{Name: "trace.phase_ns", Unit: "ns", Better: "lower", Layer: "trace", Moves: "none while the Tracer is off"},
	{Name: "obs.overhead_frac", Unit: "ratio", Better: "lower", Layer: "obs", Moves: "none: Observer+Tracer on vs off, tcp-svm-k5 clusters"},
	{Name: "controlplane.join_epoch_ms", Unit: "ms", Better: "lower", Layer: "controlplane", Moves: "none: elastic formation is not on a workload's path"},
	{Name: "serve.feed_publish_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "predict_p95_ms, predict_p99_ms on every workload"},
	{Name: "serve.feed_acquire_ns", Unit: "ns", Better: "lower", Layer: "serve", Moves: "predict_p95_ms, predict_p99_ms on every workload"},
	{Name: "serve.gateway_single_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "predict_p50_ms on the one-row serving halves"},
	{Name: "serve.gateway_many32_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "predict_p50_ms on serve-mlp-batch32"},
}
