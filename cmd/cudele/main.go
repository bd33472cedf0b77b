// Command cudele is a small scripted shell over a simulated Cudele
// cluster: it reads one command per line (from a file or stdin) and
// executes them against a fresh cluster, printing results. It exists so
// the framework can be poked interactively without writing Go.
//
// Commands:
//
//	mkdir <path>                 create directories (mkdir -p)
//	create <path>                create a file via RPCs
//	ls <path>                    list a directory
//	stat <path>                  print inode attributes
//	rm <path>                    unlink a file
//	decouple <path> [k=v ...]    register a subtree (consistency=weak
//	                             durability=local inodes=1000 interfere=block)
//	pin <path> <rank>            place a subtree on a metadata rank
//	migrate <path> <rank>        online-export a subtree to another rank
//	lcreate <name>               create in the decoupled subtree
//	lmkdir <name>                mkdir in the decoupled subtree
//	merge                        merge the client journal (volatile-apply,
//	                             or the speculative/strong-eventual merge
//	                             when the subtree's cell selects one)
//	persist local|global         persist the client journal
//	recouple <path>              drop a subtree's policy
//	scrub                        check namespace consistency
//	repair                       fix what scrub found
//	status                       monitor + MDS state
//	time                         print virtual time
//
// Lines starting with # are comments.
//
// -trace FILE writes a Chrome trace-event JSON (Perfetto-loadable) of
// the session's spans on simulated time; -metrics FILE writes a
// Prometheus text dump of every daemon's counters and utilizations.
// -cpuprofile FILE writes a CPU profile of the session whose samples are
// labelled by owner (proc, and op inside a rank or the monitor), for `go
// tool pprof -tags FILE`.
//
// -backend selects the execution backend: "sim" (the default; virtual
// time, deterministic, objects in memory) or "real" (goroutines and
// wall clocks). With -backend=real, -datadir DIR keeps RADOS objects in
// an fsynced log under DIR, so object state (persisted client journals,
// globally persisted metadata) survives across invocations.
//
// -admin ADDR (real backend only) serves the cluster's live admin
// endpoint while the session runs: /metrics, /heat, /healthz, and
// /debug/pprof. The bound address prints on stdout (use :0 for an
// ephemeral port).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"strconv"
	"strings"

	"cudele"
	"cudele/internal/namespace"
	"cudele/internal/obs"
)

// options is the parsed command line.
type options struct {
	seed        int64
	ranks       int
	backend     cudele.Backend
	dataDir     string
	adminAddr   string
	tracePath   string
	metricsPath string
	cpuProfile  string
	script      string // empty: read stdin
}

// parseFlags parses argv (without the program name) into options.
func parseFlags(argv []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("cudele", flag.ContinueOnError)
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.IntVar(&o.ranks, "ranks", 1, "metadata ranks")
	backend := fs.String("backend", "sim", "execution backend: sim (deterministic simulator) or real (goroutines, wall clock)")
	fs.StringVar(&o.dataDir, "datadir", "", "real backend only: directory for the fsynced object log (RADOS object state survives across runs)")
	fs.StringVar(&o.adminAddr, "admin", "", "real backend only: serve /metrics, /heat, /healthz, /debug/pprof on this address (:0 for an ephemeral port)")
	fs.StringVar(&o.tracePath, "trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of the session to this file")
	fs.StringVar(&o.metricsPath, "metrics", "", "write a Prometheus text dump of daemon metrics to this file")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the session to this file, every sample labelled with its owner (proc, and op inside a metadata rank or the monitor)")
	if err := fs.Parse(argv); err != nil {
		return nil, err
	}
	if o.ranks < 1 {
		return nil, fmt.Errorf("-ranks must be at least 1, got %d", o.ranks)
	}
	b, err := cudele.ParseBackend(*backend)
	if err != nil {
		return nil, err
	}
	o.backend = b
	if o.dataDir != "" && o.backend != cudele.BackendReal {
		return nil, fmt.Errorf("-datadir requires -backend=real (the simulator keeps objects in memory)")
	}
	if o.adminAddr != "" && o.backend != cudele.BackendReal {
		return nil, fmt.Errorf("-admin requires -backend=real (the simulator has no wall clock to serve on)")
	}
	if fs.NArg() > 1 {
		return nil, fmt.Errorf("one script at most, got %d: %s", fs.NArg(), strings.Join(fs.Args(), " "))
	}
	o.script = fs.Arg(0)
	return o, nil
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "cudele: %v\n", err)
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if opts.script != "" {
		f, err := os.Open(opts.script)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cudele: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	lines, err := readLines(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cudele: %v\n", err)
		os.Exit(1)
	}

	stopProfile := func() error { return nil }
	if opts.cpuProfile != "" {
		if stopProfile, err = obs.StartCPUProfile(opts.cpuProfile); err != nil {
			fmt.Fprintf(os.Stderr, "cudele: cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}

	copts := []cudele.Option{cudele.WithSeed(opts.seed), cudele.WithMDSRanks(opts.ranks)}
	if opts.backend == cudele.BackendReal {
		copts = append(copts, cudele.WithBackend(cudele.BackendReal))
		if opts.dataDir != "" {
			copts = append(copts, cudele.WithDataDir(opts.dataDir))
		}
	}
	cl := cudele.NewCluster(copts...)
	var rec *cudele.Recorder
	if opts.tracePath != "" {
		rec = cl.EnableTracing()
	}
	var admin *cudele.Admin
	if opts.adminAddr != "" {
		cl.EnableHeat(0)
		a, err := cl.ServeAdmin(opts.adminAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cudele: admin: %v\n", err)
			_ = stopProfile() // exiting with the admin error; a profile error adds nothing
			os.Exit(1)
		}
		admin = a
		fmt.Printf("admin: listening on http://%s (endpoints: /metrics /heat /healthz /debug/pprof/)\n", admin.Addr())
	}
	c := cl.NewClient("client.0")
	exit := 0
	cl.Run(func(p cudele.Proc) {
		for lineNo, line := range lines {
			if err := execute(cl, c, p, line); err != nil {
				fmt.Printf("line %d (%s): error: %v\n", lineNo+1, line, err)
				exit = 1
			}
		}
	})
	if opts.tracePath != "" {
		if err := writeFile(opts.tracePath, rec.WriteChrome); err != nil {
			fmt.Fprintf(os.Stderr, "cudele: trace: %v\n", err)
			exit = 1
		}
	}
	if opts.metricsPath != "" {
		if err := writeFile(opts.metricsPath, cl.CollectMetrics().WritePrometheus); err != nil {
			fmt.Fprintf(os.Stderr, "cudele: metrics: %v\n", err)
			exit = 1
		}
	}
	if admin != nil {
		admin.Close()
	}
	cl.Close()
	if err := stopProfile(); err != nil {
		fmt.Fprintf(os.Stderr, "cudele: cpuprofile: %v\n", err)
		exit = 1
	}
	os.Exit(exit)
}

// writeFile streams one export into path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readLines(in io.Reader) ([]string, error) {
	var out []string
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out, sc.Err()
}

func execute(cl *cudele.Cluster, c *cudele.Client, p cudele.Proc, line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("%s needs %d argument(s)", cmd, n)
		}
		return nil
	}
	switch cmd {
	case "mkdir":
		if err := need(1); err != nil {
			return err
		}
		if _, err := c.MkdirAll(p, args[0], 0755); err != nil {
			return err
		}
		fmt.Printf("mkdir %s\n", args[0])
	case "create":
		if err := need(1); err != nil {
			return err
		}
		dirPath, name := path.Split(args[0])
		dir, err := c.Resolve(p, dirPath)
		if err != nil {
			return err
		}
		ino, err := c.Create(p, dir, name, 0644)
		if err != nil {
			return err
		}
		fmt.Printf("created %s (ino %d)\n", args[0], ino)
	case "ls":
		if err := need(1); err != nil {
			return err
		}
		dir, err := c.Resolve(p, args[0])
		if err != nil {
			return err
		}
		names, err := c.ReadDir(p, dir)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %s\n", args[0], strings.Join(names, " "))
	case "stat":
		if err := need(1); err != nil {
			return err
		}
		ino, err := c.Resolve(p, args[0])
		if err != nil {
			return err
		}
		st, err := c.Stat(p, ino)
		if err != nil {
			return err
		}
		kind := "file"
		if st.IsDir {
			kind = "dir"
		}
		fmt.Printf("%s: ino=%d type=%s mode=%o size=%d\n", args[0], st.Ino, kind, st.Mode, st.Size)
	case "rm":
		if err := need(1); err != nil {
			return err
		}
		dirPath, name := path.Split(args[0])
		dir, err := c.Resolve(p, dirPath)
		if err != nil {
			return err
		}
		if err := c.Unlink(p, dir, name); err != nil {
			return err
		}
		fmt.Printf("removed %s\n", args[0])
	case "decouple":
		if err := need(1); err != nil {
			return err
		}
		text, err := policiesText(args[1:])
		if err != nil {
			return err
		}
		e, err := cl.Decouple(p, c, args[0], text)
		if err != nil {
			return err
		}
		comp, _ := e.Policy.Composition()
		fmt.Printf("decoupled %s epoch=%d inodes=[%d,+%d) %s\n",
			e.Path, e.Epoch, e.Policy.GrantLo, e.Policy.GrantN, comp)
	case "lcreate", "lmkdir":
		if err := need(1); err != nil {
			return err
		}
		root, err := c.DecoupledRoot()
		if err != nil {
			return err
		}
		var ino namespace.Ino
		if cmd == "lmkdir" {
			ino, err = c.LocalMkdir(p, root, args[0], 0755)
		} else {
			ino, err = c.LocalCreate(p, root, args[0], 0644)
		}
		if err != nil {
			return err
		}
		fmt.Printf("%s %s (ino %d, decoupled)\n", cmd, args[0], ino)
	case "merge":
		// The client merges in the cell its subtree was registered in, so
		// the shell exercises the merge path the policy compiled to.
		n, rejected, err := c.Merge(p)
		if err != nil {
			return err
		}
		fmt.Printf("merged %d event(s)", n)
		if len(rejected) > 0 {
			fmt.Printf(", %d rolled back", len(rejected))
		}
		fmt.Println()
	case "persist":
		if err := need(1); err != nil {
			return err
		}
		switch args[0] {
		case "local":
			if err := c.LocalPersist(p); err != nil {
				return err
			}
		case "global":
			if err := c.GlobalPersist(p); err != nil {
				return err
			}
		default:
			return fmt.Errorf("persist wants local or global, not %q", args[0])
		}
		fmt.Printf("persisted journal (%s)\n", args[0])
	case "pin":
		if err := need(2); err != nil {
			return err
		}
		rank, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("bad rank %q", args[1])
		}
		if err := cl.Monitor().Place(p, args[0], rank); err != nil {
			return err
		}
		fmt.Printf("pinned %s to rank %d\n", args[0], rank)
	case "migrate":
		if err := need(2); err != nil {
			return err
		}
		rank, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("bad rank %q", args[1])
		}
		if err := cl.Migrate(p, args[0], rank); err != nil {
			return err
		}
		var st cudele.Subtree // a no-op migration onto the owner leaves no record
		if rec, ok := cl.Monitor().Subtree(args[0]); ok {
			st = *rec
		}
		fmt.Printf("migrated %s to rank %d (epoch %d, move %d)\n", args[0], rank, st.Epoch, st.Moves)
	case "recouple":
		if err := need(1); err != nil {
			return err
		}
		if err := cl.Recouple(p, args[0]); err != nil {
			return err
		}
		fmt.Printf("recoupled %s\n", args[0])
	case "scrub":
		problems := cl.MDS().Store().Check()
		if len(problems) == 0 {
			fmt.Println("scrub: namespace healthy")
			break
		}
		for _, pr := range problems {
			fmt.Printf("scrub: %s\n", pr)
		}
	case "repair":
		actions := cl.MDS().Store().Repair()
		if len(actions) == 0 {
			fmt.Println("repair: nothing to do")
		}
		for _, a := range actions {
			fmt.Printf("repair: %s\n", a)
		}
	case "status":
		fmt.Print(cl.Monitor().Describe())
		meta := cl.Metadata()
		for i := 0; i < meta.Ranks(); i++ {
			m := meta.Rank(i).Metrics()
			fmt.Printf("mds.%d: %d requests, %d journaled, %d merged, %d revokes, %d rejected\n",
				i, m.Requests, m.Journaled, m.Merged, m.CapRevokes, m.Rejected)
		}
	case "time":
		fmt.Printf("t=%.6fs\n", p.Now().Seconds())
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// policiesText converts k=v arguments into a policies file.
func policiesText(kvs []string) (string, error) {
	var b strings.Builder
	for _, kv := range kvs {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return "", fmt.Errorf("bad policy argument %q (want k=v)", kv)
		}
		switch k {
		case "consistency", "durability", "interfere":
			fmt.Fprintf(&b, "%s: %s\n", k, v)
		case "inodes":
			if _, err := strconv.Atoi(v); err != nil {
				return "", fmt.Errorf("bad inodes %q", v)
			}
			fmt.Fprintf(&b, "allocated_inodes: %s\n", v)
		default:
			return "", fmt.Errorf("unknown policy key %q", k)
		}
	}
	return b.String(), nil
}
