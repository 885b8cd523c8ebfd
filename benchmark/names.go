package main

import "halfback/internal/scheme"

// metricDef is one metric as BENCHMARK.json declares it. The harness
// prints from these tables and a unit test pins BENCHMARK.json to them,
// so the file and the program cannot drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 15

// endToEnd is what a user of the CLIs sees. Bound is the share of the
// parent's median by which a metric may get worse. failed_share is
// reported as the attempted/failed counts of the result line, not as a
// metric: it is 0 at HEAD and its bound is absolute (any failure fails).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the per-layer metrics, layer by layer (layer = package).
func perLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	defs := []metricDef{
		lower("cmd.build_s", "s"),
		lower("cmd.launch_ms", "ms"),
		lower("cmd.overhead_share", "share"),
		lower("cmd.peak_rss_mb", "MB"),

		lower("experiment.run_s", "s"),
		lower("experiment.tables_s", "s"),
		lower("experiment.events", "count"),
		lower("experiment.cells", "count"),
		lower("experiment.allocs_per_event", "1/event"),
		lower("experiment.bytes_per_event", "B/event"),
		lower("experiment.new_pathsim_us", "us"),
		lower("experiment.new_pathsim_kb", "KB"),
		lower("experiment.pathsim_fetch_us", "us"),
		lower("experiment.setup_share", "share"),
		lower("experiment.new_dumbbellsim_us", "us"),

		lower("sim.schedule_fire_ns", "ns"),
		lower("sim.timer_reset_ns", "ns"),
		lower("sim.new_scheduler_us", "us"),
		lower("sim.new_scheduler_kb", "KB"),
		lower("sim.timer_cancels", "count"),
		lower("sim.peak_pending", "count"),

		lower("netem.link_pkt_ns", "ns"),
		lower("netem.link_pkt_allocs", "1/pkt"),
		lower("netem.link_pkt_adverse_ns", "ns"),
		lower("netem.new_path_us", "us"),
		lower("netem.new_dumbbell_us", "us"),

		lower("transport.scoreboard_update_ns", "ns"),
		lower("transport.scoreboard_sack_update_ns", "ns"),
		lower("transport.validate_check_ns", "ns"),
		lower("transport.new_conn_us", "us"),
	}
	for _, name := range scheme.Evaluated() {
		defs = append(defs, lower("cc."+name+".flow_us", "us"), lower("cc."+name+".flow_events", "count"))
	}
	return append(defs,
		lower("workload.planetlab_pop_ms", "ms"),
		lower("workload.poisson_arrivals_ms", "ms"),
		lower("workload.memo_hit_us", "us"),

		lower("metrics.summarize_ms", "ms"),
		lower("metrics.table_render_ms", "ms"),
		lower("metrics.render_s", "s"),

		lower("fleet.map_cell_us_w1", "us"),
		lower("fleet.map_cell_us_w2", "us"),
		lower("fleet.journal_append_us", "us"),
		lower("fleet.journal_bytes_per_cell", "B/cell"),
		lower("fleet.journal_scan_ms", "ms"),
		lower("fleet.journal_overhead_ratio", "ratio"),
		metricDef{Name: "fleet.scaling_eff_w2", Unit: "ratio", Better: "higher"},

		lower("fleet.dist.cell_rtt_us", "us"),
		lower("fleet.dist.connect_ms", "ms"),
		lower("fleet.dist.fork_ms", "ms"),
		lower("fleet.dist.overhead_ratio", "ratio"),
		lower("fleet.dist.cpu_ratio", "ratio"),
		lower("fleet.dist.redials", "count"),
		lower("fleet.dist.reassignments", "count"),

		lower("trace_overhead_share", "share"),
	)
}
