// Command hlserve serves exact distance queries from a prebuilt highway
// cover index, as a concurrent HTTP/JSON API, a binary wire protocol
// (PROTOCOL.md) for native clients, or a high-throughput stdin/stdout
// batch pipeline. The server is live: it accepts edge insertions and
// deletions (POST and DELETE /edges, or Insert and Delete frames on the
// binary listener) while serving reads lock-free, optionally journalling
// them to a write-ahead edge log that background checkpoints compact
// (see the "Live updates" section of the README and DESIGN.md).
//
// Usage:
//
//	hlserve serve -graph g.hwg -addr :8080       # live HTTP API until SIGINT
//	hlserve serve -graph g.hwg -binaddr :8081    # ... plus the binary protocol
//	hlserve serve -graph g.hwg -wal edges.wal    # ... with durable updates
//	hlserve serve -graph g.hwg -method pll       # serve any labelling method (read-only)
//	hlserve batch -graph g.hwg < pairs.txt       # one distance per line, input order
//	hlserve load  -graph g.hwg -n 100000         # in-process load test: qps + p50/p90/p99
//	hlserve load  -graph g.hwg -proto binary -batch 64   # ... through the wire protocol
//	hlserve load  -graph g.hwg -parallel 1,2,4,8 -json BENCH_SERVE.json  # qps-vs-parallelism sweep
//	hlserve load  -graph g.hwg -deleteratio 0.1  # trace-style churn: edge inserts + deletes mixed into the measured load, any -proto
//	hlserve serve -graph g.hwg -read-budget 64   # bounded in-flight admission (shed with 429/Overloaded)
//	hlserve load  -graph g.hwg -proto http -read-budget 2 -batch 1024 -parallel 8  # overload drill: shed accounting in the report
//	hlserve genpairs -graph g.hwg -n 100000      # emit "s t" lines for batch mode
//	hlserve help [command]
//
// Build the graph and index first with hlbuild (any -method). Every
// command takes -graph (binary graph file); serve, batch and load also
// take -index (default: graph path + .idx) and accept any registered
// method's index — the file's method tag selects the decoder, and
// serve's -method flag cross-checks it. Only the highway labelling
// serves live updates; every other method serves read-only. With -wal,
// serve prefers the snapshot a previous run's checkpoint persisted next
// to the log, then replays the log, so restarts lose nothing that was
// acknowledged.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"highway"
	"highway/internal/cluster"
	"highway/internal/loadgen"
	"highway/internal/serve"
	"highway/internal/workload"
)

// commands is the self-documenting dispatch table printed by help.
var commands = []struct {
	name, summary string
	run           func(args []string, stdin io.Reader, stdout, stderr io.Writer) error
}{
	{"serve", "serve the live HTTP/JSON API (GET /distance, POST /distance/batch, POST /edges, /stats, /healthz) and, with -binaddr, the binary wire protocol; -replicate ships the WAL to followers, -follower receives it", runServe},
	{"route", "run the cluster router: health-checked read fan-out across followers (or landmark shards, min-merged), writes forwarded to the primary, both protocols", runRoute},
	{"batch", `answer "s t" lines from stdin, one distance per line on stdout, in input order`, runBatch},
	{"load", "load-test a target protocol (inproc | http | binary): p50/p90/p99 latency, warmup-excluded qps, optional -parallel sweep and -json report", runLoad},
	{"genpairs", `emit "s t" query lines from the workload generator (feed for batch)`, runGenpairs},
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hlserve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		usage(stdout)
		return fmt.Errorf("no command given")
	}
	name := args[0]
	if name == "help" || name == "-h" || name == "--help" {
		usage(stdout)
		return nil
	}
	for _, c := range commands {
		if c.name == name {
			return c.run(args[1:], stdin, stdout, stderr)
		}
	}
	usage(stdout)
	return fmt.Errorf("unknown command %q", name)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "hlserve — concurrent exact distance serving (highway cover labelling, EDBT 2019)")
	fmt.Fprintln(w, "\nAvailable commands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "\nRun \"hlserve <command> -h\" for the command's flags.")
}

// indexFlags declares the flags every command shares and returns a
// resolver for the graph/index paths plus a method-agnostic loader
// (the file's method tag selects the decoder, so every subcommand
// accepts any registered method's index).
func indexFlags(fs *flag.FlagSet) (paths func() (graphPath, indexPath string, err error), load func() (highway.DistanceIndex, error)) {
	graphPath := fs.String("graph", "", "binary graph file (required; build with hlbuild)")
	indexPath := fs.String("index", "", "index file (default: graph path + .idx)")
	paths = func() (string, string, error) {
		if *graphPath == "" {
			return "", "", fmt.Errorf("-graph is required")
		}
		ip := *indexPath
		if ip == "" {
			ip = *graphPath + ".idx"
		}
		return *graphPath, ip, nil
	}
	load = func() (highway.DistanceIndex, error) {
		gp, ip, err := paths()
		if err != nil {
			return nil, err
		}
		g, err := highway.LoadGraph(gp)
		if err != nil {
			return nil, err
		}
		return highway.LoadIndexAny(ip, g)
	}
	return paths, load
}

func runServe(args []string, _ io.Reader, stdout, _ io.Writer) error {
	fs := flag.NewFlagSet("hlserve serve", flag.ContinueOnError)
	paths, load := indexFlags(fs)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	binAddr := fs.String("binaddr", "", "binary wire protocol listen address (see PROTOCOL.md; empty = HTTP only)")
	maxBatch := fs.Int("maxbatch", 0, "max pairs/edges per batch request (0 = default)")
	walPath := fs.String("wal", "", "write-ahead edge log for durable updates (replayed on startup; empty = in-memory updates only)")
	checkpointTh := fs.Int("checkpoint-threshold", 0, "WAL length (records) triggering a checkpoint: persist the served snapshot and compact the log (0 = default, <0 = never)")
	readonly := fs.Bool("readonly", false, "serve the index frozen, without the update API")
	readBudget := fs.Int("read-budget", 0, "admission budget for in-flight read work, in cost units of 1 + pairs/1024 (0 = default, <0 = unlimited); over-budget requests are shed with 429/Overloaded")
	writeBudget := fs.Int("write-budget", 0, "admission budget for in-flight insert work, same units as -read-budget (0 = default, <0 = unlimited)")
	methodName := fs.String("method", "", "index method to serve: "+strings.Join(highway.MethodNames(), " | ")+" (default: auto-detect from the index file; non-dynamic methods serve read-only)")
	replicate := fs.String("replicate", "", "comma-separated follower binary addresses to ship the WAL to (primary role; requires -wal)")
	follower := fs.Bool("follower", false, "run as a replication follower: bootstrap from the primary's snapshot stream, serve reads (no -graph needed; requires -binaddr for the replication frames)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *follower {
		return runFollower(*addr, *binAddr, serve.Config{MaxBatch: *maxBatch, ReadBudget: *readBudget, WriteBudget: *writeBudget}, stdout)
	}
	if *readonly && *walPath != "" {
		// A frozen server cannot replay or append the log; refusing
		// beats silently serving state that is missing acknowledged
		// edges.
		return fmt.Errorf("-readonly and -wal are mutually exclusive")
	}
	if *replicate != "" && *walPath == "" {
		// The generation file fencing rests on lives next to the WAL,
		// and a primary whose acked writes are not durable cannot
		// promise followers anything across a restart.
		return fmt.Errorf("-replicate requires -wal (the generation file lives next to the log)")
	}
	cfg := serve.LiveConfig{
		Config:              serve.Config{MaxBatch: *maxBatch, ReadBudget: *readBudget, WriteBudget: *writeBudget},
		CheckpointThreshold: *checkpointTh,
	}
	var shipper *cluster.Shipper
	if *replicate != "" {
		gen, err := cluster.NextGeneration(*walPath + ".gen")
		if err != nil {
			return err
		}
		cfg.EpochBase = cluster.EpochBase(gen)
		shipper = cluster.NewShipper(cluster.ShipperConfig{
			Followers: strings.Split(*replicate, ","),
		})
		cfg.OnCommit = shipper.OnCommit
		fmt.Fprintf(stdout, "hlserve: primary generation %d, replicating to %s\n", gen, *replicate)
	}

	// Resolve the method: sniff the index file's tag, cross-checked
	// against -method when given (serving a file under the wrong decoder
	// must fail loudly, not mis-answer). The -wal restart path may
	// legitimately run without the index file — serve.LoadLive prefers
	// the snapshot a previous checkpoint persisted — so there the
	// tag defaults to hl and is only sniffed when the file is present.
	gp, ip, err := paths()
	if err != nil {
		return err
	}
	tag := "hl"
	if _, serr := os.Stat(ip); serr == nil || *walPath == "" {
		if tag, err = highway.SniffIndexMethod(ip); err != nil {
			return err
		}
	}
	m, err := highway.MethodByName(tag)
	if err != nil {
		return err
	}
	if *methodName != "" {
		want, err := highway.MethodByName(*methodName)
		if err != nil {
			return err
		}
		if want.Name != m.Name {
			return fmt.Errorf("-method %s, but %s is a %q index", want.Name, ip, m.Name)
		}
	}

	var srv *serve.Server
	switch {
	case m.Name != "hl":
		// Generic path: any method serves through the shared machinery.
		// The WAL/checkpoint pipeline is bound to the highway labelling's
		// files; a dynamic-method index (dynhl) still serves live via its
		// frozen snapshot, every non-dynamic method serves read-only.
		if *walPath != "" {
			return fmt.Errorf("-wal requires an hl index (got a %q index)", m.Name)
		}
		ix, err := load()
		if err != nil {
			return err
		}
		dyn, isDynHL := ix.(*highway.DynamicIndex)
		switch {
		case *readonly || !isDynHL:
			if !*readonly {
				fmt.Fprintf(stdout, "hlserve: method %s serves read-only (POST /edges needs a dynamic highway index)\n", m.Name)
			}
			srv = serve.NewIndex(ix, cfg.Config)
		default:
			// dynhl: snapshot the evolved state and serve it live.
			_, frozen, err := dyn.Freeze()
			if err != nil {
				return err
			}
			srv, err = serve.NewLive(frozen, cfg)
			if err != nil {
				return err
			}
		}
	case *readonly:
		ix, err := load()
		if err != nil {
			return err
		}
		srv = serve.NewIndex(ix, cfg.Config)
	case *walPath != "":
		srv, err = serve.LoadLive(gp, ip, *walPath, cfg)
		if err != nil {
			return err
		}
	default:
		ix, err := load()
		if err != nil {
			return err
		}
		// The m.Name == "hl" guard above makes this assertion safe.
		srv, err = serve.NewLive(ix.(*highway.Index), cfg)
		if err != nil {
			return err
		}
	}
	defer srv.Close()
	if shipper != nil {
		if srv.LiveStats() == nil {
			return fmt.Errorf("-replicate needs a live (writable) server")
		}
		shipper.Start(srv)
		defer shipper.Close()
		srv.SetReplicationStats(shipper.Stats)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "hlserve: %s\n", srv.Index().Stats())
	if st := srv.LiveStats(); st != nil {
		mode := "in-memory only"
		if st.WALEnabled {
			mode = fmt.Sprintf("wal %s (%d records replayed)", *walPath, st.WALLen)
		}
		fmt.Fprintf(stdout, "hlserve: live updates enabled, %s\n", mode)
	}
	fmt.Fprintf(stdout, "hlserve: listening on %s (GET /distance?s=&t=, POST /distance/batch, POST /edges, GET /stats, GET /healthz)\n", *addr)
	if *binAddr == "" {
		return srv.ListenAndServe(ctx, *addr)
	}

	// Dual-listener mode: HTTP and the binary protocol serve the same
	// snapshots, searcher pools and metrics. Either listener failing
	// takes the whole process down (a half-up server is worse than a
	// down one); a signal shuts both down gracefully.
	fmt.Fprintf(stdout, "hlserve: binary protocol listening on %s (PROTOCOL.md; native client: highway.Dial)\n", *binAddr)
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, 2)
	go func() { errc <- srv.ListenAndServeBinary(lctx, *binAddr) }()
	go func() { errc <- srv.ListenAndServe(lctx, *addr) }()
	err = <-errc
	cancel()
	if e2 := <-errc; err == nil {
		err = e2
	}
	return err
}

// runFollower serves the replication-follower role: an initially-empty
// server whose state arrives over the binary listener as a snapshot
// stream plus per-batch appends. /readyz answers 503 until the first
// snapshot installs.
func runFollower(addr, binAddr string, cfg serve.Config, stdout io.Writer) error {
	if binAddr == "" {
		return fmt.Errorf("-follower requires -binaddr (replication frames arrive on the binary listener)")
	}
	f, err := cluster.NewFollower(cfg)
	if err != nil {
		return err
	}
	srv := f.Server()
	defer srv.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "hlserve: follower awaiting snapshot bootstrap; HTTP on %s, binary (replication + reads) on %s\n", addr, binAddr)
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, 2)
	go func() { errc <- srv.ListenAndServeBinary(lctx, binAddr) }()
	go func() { errc <- srv.ListenAndServe(lctx, addr) }()
	err = <-errc
	cancel()
	if e2 := <-errc; err == nil {
		err = e2
	}
	return err
}

// runRoute serves the router role: no local state, reads fanned across
// the member lists, writes forwarded to the primary.
func runRoute(args []string, _ io.Reader, stdout, _ io.Writer) error {
	fs := flag.NewFlagSet("hlserve route", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	binAddr := fs.String("binaddr", "", "binary wire protocol listen address (empty = HTTP only)")
	primary := fs.String("primary", "", "primary's binary address for forwarded writes (empty = read-only cluster)")
	followers := fs.String("followers", "", "comma-separated follower binary addresses for read fan-out (one replica set; use -shards for landmark partitions)")
	shardsFlag := fs.String("shards", "", "semicolon-separated landmark shards, each a comma-separated member list, e.g. a:9001,b:9001;c:9001 — reads fan to every shard and min-merge (exact; each shard holds a disjoint landmark subset)")
	maxBatch := fs.Int("maxbatch", 0, "max pairs per batch request (0 = default)")
	healthMs := fs.Int("health-interval", 0, "member health-check interval in milliseconds (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *followers != "" && *shardsFlag != "" {
		return fmt.Errorf("-followers and -shards are mutually exclusive (followers is shorthand for one shard)")
	}
	var shards [][]string
	switch {
	case *followers != "":
		shards = [][]string{strings.Split(*followers, ",")}
	case *shardsFlag != "":
		for _, s := range strings.Split(*shardsFlag, ";") {
			shards = append(shards, strings.Split(s, ","))
		}
	default:
		return fmt.Errorf("route needs -followers or -shards")
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Primary:        *primary,
		Shards:         shards,
		MaxBatch:       *maxBatch,
		HealthInterval: time.Duration(*healthMs) * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "hlserve: routing %d shard(s), primary %q; HTTP on %s\n", len(shards), *primary, *addr)
	if *binAddr == "" {
		return rt.ListenAndServe(ctx, *addr)
	}
	fmt.Fprintf(stdout, "hlserve: binary protocol listening on %s\n", *binAddr)
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, 2)
	go func() { errc <- rt.ListenAndServeBinary(lctx, *binAddr) }()
	go func() { errc <- rt.ListenAndServe(lctx, *addr) }()
	err = <-errc
	cancel()
	if e2 := <-errc; err == nil {
		err = e2
	}
	return err
}

func runBatch(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hlserve batch", flag.ContinueOnError)
	_, load := indexFlags(fs)
	workers := fs.Int("workers", 0, "worker goroutines (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ix, err := load()
	if err != nil {
		return err
	}
	stats, err := serve.NewIndex(ix, serve.Config{}).RunBatch(stdin, stdout, *workers)
	if err != nil {
		return err
	}
	fmt.Fprintln(stderr, "hlserve:", stats)
	return nil
}

func runLoad(args []string, _ io.Reader, stdout, _ io.Writer) error {
	fs := flag.NewFlagSet("hlserve load", flag.ContinueOnError)
	paths, load := indexFlags(fs)
	n := fs.Int("n", 100_000, "total measured pairs per run (the paper samples 100,000)")
	seed := fs.Int64("seed", 42, "workload seed")
	workers := fs.Int("workers", 0, "concurrent load workers, each with its own connection and request queue (0 = all cores)")
	churn := fs.Float64("churn", 0, "fraction of requests preceded by one edge mutation through the target protocol (0 = read-only unless -deleteratio is set, which defaults this to 0.1; needs an hl index)")
	deleteRatio := fs.Float64("deleteratio", 0, "fraction of churn mutations that delete a live edge instead of inserting (implies -churn 0.1 when churn is unset)")
	skew := fs.Float64("skew", 0, "Zipf skew for churn insertion endpoints, >1 to enable (low vertex ids = hubs); uniform otherwise")
	proto := fs.String("proto", "inproc", "target protocol: inproc (no wire protocol), http (HTTP/JSON API) or binary (PROTOCOL.md)")
	target := fs.String("target", "", "drive already-running servers at this comma-separated address list (http base URLs or binary host:ports; workers spread round-robin) instead of a self-hosted loopback listener")
	batch := fs.Int("batch", 1, "pairs per request (1 = the single-query path)")
	warmup := fs.Int("warmup", 0, "per-worker warmup requests, issued before the clock starts and excluded from every reported figure (0 = a tenth of the per-worker requests, <0 = none)")
	readBudget := fs.Int("read-budget", -1, "admission budget of the self-hosted server, in cost units of 1 + pairs/1024 (<0 = unlimited, the load-test default); shed requests are counted and timed separately")
	parallel := fs.String("parallel", "", "comma-separated worker counts to sweep with a fixed total request budget, e.g. 1,2,4,8 (overrides -workers)")
	jsonPath := fs.String("json", "", "write all runs as a JSON report to this file (the BENCH_SERVE.json schema; empty = stdout only)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Everything that can be rejected before touching the index is
	// rejected here: a bad flag combination must cost an error message,
	// not an index load (on billion-edge graphs, minutes).
	if *churn < 0 || *churn > 1 {
		return fmt.Errorf("-churn must be in [0,1], got %g", *churn)
	}
	if *deleteRatio < 0 || *deleteRatio > 1 {
		return fmt.Errorf("-deleteratio must be in [0,1], got %g", *deleteRatio)
	}
	if *deleteRatio > 0 && *churn == 0 {
		*churn = 0.1 // -deleteratio alone means "churn, a tenth of the requests"
	}
	if *proto != "inproc" && *proto != "http" && *proto != "binary" {
		return fmt.Errorf("unknown -proto %q (want inproc, http or binary)", *proto)
	}
	if *batch <= 0 {
		return fmt.Errorf("-batch must be positive, got %d", *batch)
	}
	levels, err := parseLevels(*parallel)
	if err != nil {
		return err
	}
	_, ip, err := paths()
	if err != nil {
		return err
	}
	if *churn > 0 {
		// Churn mutates through the target protocol, so the self-hosted
		// server must be live — which only the highway labelling can be.
		// Sniffing the index file's method tag costs a header read, so
		// the mismatch surfaces now rather than after loading the
		// labelling.
		tag, err := highway.SniffIndexMethod(ip)
		if err != nil {
			return err
		}
		if tag != "hl" {
			return fmt.Errorf("-churn/-deleteratio needs an hl index (method %q serves read-only)", tag)
		}
	}

	ix, err := load()
	if err != nil {
		return err
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if levels == nil {
		levels = []int{*workers}
	}

	// The percentile harness drives every load. The target is
	// the in-process server, or a wire protocol — self-hosted on a
	// loopback listener unless -target points at a running server, so a
	// protocol-overhead comparison needs nothing but this one command.
	// The default budget is unlimited: a load test wants to measure the
	// index, not the gate — overload experiments opt in via -read-budget.
	// A churn run self-hosts a live server so the mutation endpoints
	// exist on every protocol.
	var srv *serve.Server
	if *churn > 0 {
		srv, err = serve.NewLive(ix.(*highway.Index), serve.LiveConfig{
			Config: serve.Config{ReadBudget: *readBudget},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
	} else {
		srv = serve.NewIndex(ix, serve.Config{ReadBudget: *readBudget})
	}
	var factory loadgen.TargetFactory
	switch *proto {
	case "inproc":
		factory = loadgen.InProcFactory(srv)
	case "http":
		// -target accepts a comma-separated endpoint list; workers are
		// spread round-robin across them (aggregate replica-set QPS).
		if *target == "" {
			ln, stop, err := selfHost(func(ctx context.Context, ln net.Listener) error { return srv.Serve(ctx, ln) })
			if err != nil {
				return err
			}
			defer stop()
			factory = loadgen.HTTPFactory("http://" + ln.Addr().String())
		} else {
			bases := strings.Split(*target, ",")
			for i, b := range bases {
				if !strings.Contains(b, "://") {
					bases[i] = "http://" + b
				}
			}
			factory = loadgen.MultiHTTPFactory(bases)
		}
	case "binary":
		if *target == "" {
			ln, stop, err := selfHost(srv.ServeBinary)
			if err != nil {
				return err
			}
			defer stop()
			factory = loadgen.BinaryFactory(ln.Addr().String())
		} else {
			factory = loadgen.MultiBinaryFactory(strings.Split(*target, ","))
		}
	}

	opt := loadgen.Options{
		Requests:    *n / *batch, // total budget; Sweep splits it across workers
		Warmup:      *warmup,
		Batch:       *batch,
		N:           ix.Stats().NumVertices,
		Seed:        *seed,
		Churn:       *churn,
		DeleteRatio: *deleteRatio,
		Skew:        *skew,
	}
	runs, err := loadgen.Sweep(opt, levels, factory)
	if err != nil {
		return err
	}
	for i := range runs {
		runs[i].Protocol = *proto
		fmt.Fprintln(stdout, "hlserve:", runs[i])
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		rp := loadgen.Report{
			Command: "hlserve load " + strings.Join(args, " "),
			Host:    fmt.Sprintf("%s/%s, %d cores, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
			Runs:    runs,
		}
		if err := rp.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "hlserve: wrote %d runs to %s\n", len(runs), *jsonPath)
	}
	return nil
}

// parseLevels parses the -parallel flag: a comma-separated list of
// positive worker counts, nil when empty.
func parseLevels(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	levels := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-parallel wants positive worker counts like 1,2,4,8; got %q", s)
		}
		levels = append(levels, v)
	}
	return levels, nil
}

// selfHost starts serveFn on a loopback listener and returns the
// listener plus a stop func that shuts the listener down and reports
// its exit error.
func selfHost(serveFn func(context.Context, net.Listener) error) (net.Listener, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveFn(ctx, ln) }()
	return ln, func() error {
		cancel()
		return <-done
	}, nil
}

func runGenpairs(args []string, _ io.Reader, stdout, _ io.Writer) error {
	fs := flag.NewFlagSet("hlserve genpairs", flag.ContinueOnError)
	graphPath := fs.String("graph", "", "binary graph file (required)")
	n := fs.Int("n", 100_000, "pairs to emit")
	seed := fs.Int64("seed", 42, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	g, err := highway.LoadGraph(*graphPath)
	if err != nil {
		return err
	}
	return workload.WritePairs(stdout, g, *n, *seed)
}
