package obs

// Metric families exported by the instrumented SNAP components. Each maps
// to a quantity the paper measures (see DESIGN.md §Observability):
// per-link bytes are the raw material of the hop-weighted cost (§II-B),
// selected-vs-withheld parameter counts are the APE savings (Fig. 4b),
// the APE stage/threshold gauges expose Algorithm 1's schedule, and the
// gather-wait histogram is the straggler behavior of Fig. 9.
const (
	// Transport (per neighbor link, labeled peer="<id>").
	MLinkFramesSent   = "snap_link_frames_sent_total"
	MLinkBytesSent    = "snap_link_bytes_sent_total"
	MLinkFramesRecv   = "snap_link_frames_recv_total"
	MLinkBytesRecv    = "snap_link_bytes_recv_total"
	MLinkConnects     = "snap_link_connects_total"
	MLinkDisconnects  = "snap_link_disconnects_total"
	MLinkReconnects   = "snap_link_reconnects_total"
	MReconnectSeconds = "snap_link_reconnect_seconds" // down -> up latency
	MGatherWait       = "snap_gather_wait_seconds"
	MGatherIncomplete = "snap_gather_incomplete_total" // rounds short of frames

	// Engine (labeled node="<id>"; the simulator shares one registry
	// across engines, so the label keeps per-node series distinct).
	MComputeSeconds   = "snap_compute_seconds" // one EXTRA step (gradient + mix)
	MParamsSent       = "snap_params_sent_total"
	MParamsWithheld   = "snap_params_withheld_total"
	MModelParams      = "snap_model_params"
	MRoundSelected    = "snap_round_params_selected"
	MFullSends        = "snap_full_sends_total"
	MAPEStage         = "snap_ape_stage"
	MAPEThreshold     = "snap_ape_threshold"
	MAPESendThreshold = "snap_ape_send_threshold"
	MExtraRestarts    = "snap_extra_restarts_total"

	// Round driver (PeerNode / Cluster). Phase histograms are labeled
	// phase="build|encode|broadcast|gather|decode|integrate" and
	// deliberately unlabeled by node: a testbed process is one node, and
	// the simulator's useful view is the cross-node aggregate.
	MRound        = "snap_round"
	MRoundSeconds = "snap_round_seconds"
	MPhaseSeconds = "snap_round_phase_seconds"
	// MRoundBytes is the communication of the last finished round: raw
	// socket bytes on the testbed, hop-weighted cost in the simulator.
	MRoundBytes    = "snap_round_bytes_sent"
	MSendFailures  = "snap_send_failures_total"
	MCorruptFrames = "snap_corrupt_frames_total"
	MRefreshes     = "snap_reconnect_refreshes_total"
	MLocalLoss     = "snap_local_loss"
	// Pipelined rounds (DESIGN.md §14). Overlap seconds is how much of
	// the broadcast+gather window ran while the gradient was also
	// running — the comms time the pipeline hid; round wall-clock ≈
	// max(compute, comms) instead of their sum when it is high.
	MOverlapSeconds = "snap_round_overlap_seconds"
	// MStreamDepth gauges how many of the last round's frames were
	// decoded+integrated inside the overlap window (before the local
	// gradient finished); MStreamFrames counts streamed frames overall.
	MStreamDepth  = "snap_gather_stream_depth"
	MStreamFrames = "snap_gather_stream_frames_total"

	// Control plane. The epoch gauge and reconfiguration histogram live on
	// nodes; member counts and join/leave/broadcast counters live on the
	// coordinator.
	MEpoch            = "snap_epoch"                  // current epoch id (node + coordinator)
	MEpochsApplied    = "snap_epochs_applied_total"   // reconfigurations a node performed
	MReconfigSeconds  = "snap_reconfig_seconds"       // epoch-application latency (drop+connect+swap)
	MMembers          = "snap_members"                // coordinator's current member count
	MJoins            = "snap_member_joins_total"     // admitted joins
	MLeaves           = "snap_member_leaves_total"    // graceful leaves
	MEvictions        = "snap_member_evictions_total" // heartbeat-timeout evictions
	MEpochsBroadcast  = "snap_epochs_broadcast_total" // epochs the coordinator published
	MLambdaBarMax     = "snap_w_lambda_bar_max"       // λ̄max(W) of the current epoch's matrix
	MWeightOptSeconds = "snap_weight_opt_seconds"     // central W re-optimization time

	// Distributed tracing (coordinator-side aggregation). Bytes-saved is
	// the cluster-wide form of the paper's communication reduction:
	// full-send baseline bytes minus selective-send bytes, summed over
	// every traced frame.
	MTraceDigests      = "snap_trace_digests_total"         // round digests ingested from members
	MTraceCompleteness = "snap_trace_completeness"          // fraction of members reporting the latest merged round
	MTraceStraggler    = "snap_trace_straggler_node"        // straggler verdict for the latest merged round (-1 unknown)
	MTraceStragglerLag = "snap_trace_straggler_lag_seconds" // how much the straggler lengthened the round
	MTraceBytesSaved   = "snap_trace_bytes_saved_total"     // cumulative bytes saved vs full-parameter sends
	MClockOffset       = "snap_clock_offset_seconds"        // per-member clock offset estimate (labeled node="<id>")
)

// Label keys used with Label(...). Dashboards and the trace tooling
// join series on these strings, so call sites must use the constants
// (TestPeerNodeObserverMetrics fails on an exported key not declared
// here).
const (
	LPeer  = "peer"  // neighbor id on per-link transport series
	LNode  = "node"  // node id on engine series (simulator shares one registry)
	LPhase = "phase" // round phase on MPhaseSeconds
)
