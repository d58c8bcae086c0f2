package regcast

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// CommonFlags is the flag surface shared by every regcast command:
// one -seed and one -workers flag with identical names, defaults, and
// semantics across binaries, parsed through this single helper so the
// commands cannot drift apart again.
type CommonFlags struct {
	// Seed is the master random seed; all of a command's randomness
	// (topology generation and the runs themselves) derives from it.
	Seed uint64
	// Workers is the number of goroutines that run the simulators'
	// shard passes: 0 and 1 = inline, -1 = GOMAXPROCS, n > 1 = n. It
	// never changes a result.
	Workers int
	// SchedulerName is the raw -scheduler value ("rounds" or
	// "interactions"); Validate parses it and Scheduler returns the
	// typed selection.
	SchedulerName string
	// Topology is the raw -topology value (the ParseTopologySpec string
	// form, e.g. "hypercube:dim=27"); empty means the command's own
	// topology flags apply. Validate parses it and TopologySpec returns
	// the parsed spec.
	Topology string
	// PopFastPath mirrors the population engine's two-path contract on
	// the command line: true (the default) lets the engine auto-engage
	// its compiled fast path, false forces the reference per-pair
	// components — the cross-validation and A/B-benchmark switch.
	PopFastPath bool

	scheduler Scheduler
	spec      TopologySpec
}

// AddCommonFlags registers the canonical -seed/-workers/-scheduler flags
// on fs and returns the struct their parsed values land in.
func AddCommonFlags(fs *flag.FlagSet) *CommonFlags {
	f := &CommonFlags{}
	fs.Uint64Var(&f.Seed, "seed", 1, "master random seed (topology and runs derive from it)")
	fs.IntVar(&f.Workers, "workers", 0,
		"engine workers per run: 0 or 1 = inline, -1 = GOMAXPROCS, n = n workers (never changes results)")
	fs.StringVar(&f.SchedulerName, "scheduler", SchedulerRounds.String(),
		"engine family: rounds = phone-call round model, interactions = population-protocol pairwise interactions")
	fs.StringVar(&f.Topology, "topology", "",
		"topology spec override, family:key=val,... (e.g. hypercube:dim=27, torus:rows=64,cols=64, gnp-stream:n=4096,p=0.004, regular:n=4096,d=8; see regcast.ParseTopologySpec)")
	fs.BoolVar(&f.PopFastPath, "pop-fastpath", true,
		"population engine fast path (table/counts/batch kernels); false forces the reference per-pair components")
	return f
}

// Validate rejects flag values no engine accepts.
func (f *CommonFlags) Validate() error {
	if f.Workers < WorkersAuto {
		return fmt.Errorf("-workers %d invalid (use -1, 0 or a positive count)", f.Workers)
	}
	s, err := ParseScheduler(f.SchedulerName)
	if err != nil {
		return fmt.Errorf("-scheduler %q invalid (use rounds or interactions)", f.SchedulerName)
	}
	f.scheduler = s
	if f.Topology != "" {
		spec, err := ParseTopologySpec(f.Topology)
		if err != nil {
			return fmt.Errorf("-topology: %w", err)
		}
		f.spec = spec
	}
	return nil
}

// Scheduler returns the engine family the -scheduler flag selected;
// call Validate first.
func (f *CommonFlags) Scheduler() Scheduler { return f.scheduler }

// TopologySpec returns the spec the -topology flag selected, or nil when
// the flag was not given; call Validate first.
func (f *CommonFlags) TopologySpec() TopologySpec { return f.spec }

// Rand returns the master RNG derived from -seed; Split it per consumer.
func (f *CommonFlags) Rand() *Rand { return NewRand(f.Seed) }

// RunnerOptions translates the -workers flag into the Runner's worker
// count — the single definition of the flag's semantics — plus the
// population fast-path switch when -pop-fastpath=false.
func (f *CommonFlags) RunnerOptions() []RunnerOption {
	opts := []RunnerOption{WithWorkers(f.Workers)}
	if !f.PopFastPath {
		opts = append(opts, WithoutPopulationFastPath())
	}
	return opts
}

// Runner builds the Runner the flags select.
func (f *CommonFlags) Runner() Runner {
	return NewRunner(f.RunnerOptions()...)
}

// TransportFlags is the shared flag surface for commands that can run a
// scenario over the resilient gossip daemon, optionally under injected
// chaos. Register with AddTransportFlags, check Validate, and pass
// RunnerOptions() alongside CommonFlags.RunnerOptions().
type TransportFlags struct {
	// Daemon selects EngineDaemonTransport (persistent peers, dial
	// scheduler, dedup, health metrics).
	Daemon bool
	// Chaos enables the seeded fault plan; implies Daemon.
	Chaos bool
	// ChaosSeed seeds every fault decision (0 = derive from -seed).
	ChaosSeed uint64
	// Drop / Duplicate / Reorder are per-packet fault probabilities.
	Drop      float64
	Duplicate float64
	Reorder   float64
	// DelayProb delays a packet by Delay with the given probability.
	DelayProb float64
	Delay     time.Duration
	// Partition is an optional "from:until" tick window during which the
	// node set is split into two halves (low ids vs high ids).
	Partition string
	// Crash is an optional "node:from:until" transport-level
	// crash-restart window.
	Crash string
	// Mailbox is the per-node inbox capacity of the transport engines.
	Mailbox int

	partition *PartitionWindow // parsed by Validate (nil when unset)
	crash     *CrashWindow
}

// AddTransportFlags registers the canonical daemon/chaos flags on fs.
func AddTransportFlags(fs *flag.FlagSet) *TransportFlags {
	f := &TransportFlags{}
	fs.BoolVar(&f.Daemon, "daemon", false,
		"run over the resilient gossip daemon (persistent peers, dial scheduler, dedup, health metrics)")
	fs.BoolVar(&f.Chaos, "chaos", false,
		"inject seeded, reproducible faults in front of the daemon (implies -daemon)")
	fs.Uint64Var(&f.ChaosSeed, "chaos-seed", 0, "fault-plan seed (0 = derive from -seed)")
	fs.Float64Var(&f.Drop, "chaos-drop", 0.2, "per-packet drop probability under -chaos")
	fs.Float64Var(&f.Duplicate, "chaos-dup", 0, "per-packet duplication probability under -chaos")
	fs.Float64Var(&f.Reorder, "chaos-reorder", 0, "per-packet pairwise-reorder probability under -chaos")
	fs.Float64Var(&f.DelayProb, "chaos-delay-prob", 0, "per-packet delay probability under -chaos")
	fs.DurationVar(&f.Delay, "chaos-delay", 5*time.Millisecond, "delay applied to delayed packets")
	fs.StringVar(&f.Partition, "chaos-partition", "",
		"partition window from:until (ticks, half-open); splits nodes into low/high halves")
	fs.StringVar(&f.Crash, "chaos-crash", "",
		"crash-restart window node:from:until (ticks, half-open)")
	fs.IntVar(&f.Mailbox, "mailbox", 0, "per-node transport mailbox capacity (0 = engine default)")
	return f
}

// Validate parses the window flags and rejects out-of-range values.
func (f *TransportFlags) Validate() error {
	if f.Chaos {
		f.Daemon = true
	}
	for name, p := range map[string]float64{
		"-chaos-drop": f.Drop, "-chaos-dup": f.Duplicate,
		"-chaos-reorder": f.Reorder, "-chaos-delay-prob": f.DelayProb,
	} {
		if p < 0 || p > 1 {
			return fmt.Errorf("%s %v out of [0,1]", name, p)
		}
	}
	if f.Mailbox < 0 {
		return fmt.Errorf("-mailbox %d negative", f.Mailbox)
	}
	if f.Partition != "" {
		from, until, err := parseWindow2(f.Partition)
		if err != nil {
			return fmt.Errorf("-chaos-partition: %w", err)
		}
		f.partition = &PartitionWindow{From: from, Until: until}
	}
	if f.Crash != "" {
		parts := strings.Split(f.Crash, ":")
		if len(parts) != 3 {
			return fmt.Errorf("-chaos-crash: want node:from:until, got %q", f.Crash)
		}
		node, err1 := strconv.Atoi(parts[0])
		from, until, err2 := parseWindow2(parts[1] + ":" + parts[2])
		if err1 != nil || err2 != nil || node < 0 {
			return fmt.Errorf("-chaos-crash: want node:from:until, got %q", f.Crash)
		}
		f.crash = &CrashWindow{Node: node, From: from, Until: until}
	}
	return nil
}

// parseWindow2 parses "from:until" into a half-open int window.
func parseWindow2(s string) (from, until int, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want from:until, got %q", s)
	}
	from, err1 := strconv.Atoi(parts[0])
	until, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || from < 0 || until < from {
		return 0, 0, fmt.Errorf("want 0 <= from <= until, got %q", s)
	}
	return from, until, nil
}

// FaultConfig assembles the chaos schedule the flags describe, splitting
// n nodes into low/high halves for the partition window. It returns nil
// when -chaos is off. seed is used when -chaos-seed is 0.
func (f *TransportFlags) FaultConfig(n int, seed uint64) *FaultConfig {
	if !f.Chaos {
		return nil
	}
	cfg := &FaultConfig{
		Seed:      f.ChaosSeed,
		Drop:      f.Drop,
		Duplicate: f.Duplicate,
		Reorder:   f.Reorder,
		DelayProb: f.DelayProb,
		Delay:     f.Delay,
	}
	if cfg.Seed == 0 {
		cfg.Seed = seed
	}
	if f.partition != nil {
		w := *f.partition
		for v := 0; v < n/2; v++ {
			w.A = append(w.A, v)
		}
		cfg.Partitions = []PartitionWindow{w}
	}
	if f.crash != nil {
		cfg.Crashes = []CrashWindow{*f.crash}
	}
	return cfg
}

// RunnerOptions translates the flags into Runner options for an n-node
// scenario; empty when -daemon/-chaos are off. Apply after
// CommonFlags.RunnerOptions so the engine selection wins.
func (f *TransportFlags) RunnerOptions(n int, seed uint64) []RunnerOption {
	var opts []RunnerOption
	if !f.Daemon {
		return opts
	}
	opts = append(opts, WithEngine(EngineDaemonTransport))
	if f.Mailbox > 0 {
		opts = append(opts, WithMailbox(f.Mailbox))
	}
	if cfg := f.FaultConfig(n, seed); cfg != nil {
		opts = append(opts, WithTransportFaults(*cfg))
	}
	return opts
}
