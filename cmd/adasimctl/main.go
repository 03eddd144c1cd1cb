// Command adasimctl is the CLI client for the adasimd campaign service.
//
// Usage:
//
//	adasimctl [-addr http://127.0.0.1:8080] <command> [flags]
//
// Commands:
//
//	submit     submit a job (from -spec JSON or from flags); -wait blocks
//	explore    submit a scenario-space exploration; -wait blocks
//	report     submit a paper-artifact report; -wait blocks
//	task       status, results and control of any task kind:
//	             task status|results|wait|cancel|watch -id <task-id>
//	scenarios  list the scenario catalogue (including families)
//	health     show daemon health, queue, pool, and cache counters
//	cache      show the result cache: memory tier and segment store
//	workers    show the remote-worker fleet (connected workers, leases)
//
// The submit verbs accept -priority interactive|bulk to override the
// kind's default scheduling class.
//
// Examples:
//
//	adasimctl submit -fault rd -driver -check -aeb indep -reps 3 -wait
//	adasimctl submit -spec job.json
//	adasimctl task results -id j000001-1a2b3c4d
//	adasimctl explore -family cut-in -boundary-axis trigger_gap -driver -fault curv -wait
//	adasimctl explore -family cut-in -method lhs -samples 32 -axes "trigger_gap=5:60" -wait
//	adasimctl report -artifacts table6,fig6 -reps 2 -wait
//	adasimctl task status -id r000002-5e6f7a8b
//	adasimctl task watch -id r000002-5e6f7a8b
//	adasimctl task cancel -id r000002-5e6f7a8b
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"adasim/internal/client"
	"adasim/internal/explore"
	"adasim/internal/report"
	"adasim/internal/scenario"
	"adasim/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adasimctl:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "http://127.0.0.1:8080", "adasimd base URL")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: adasimctl [-addr URL] <submit|explore|report|task|scenarios|health|cache|workers> [flags]")
		fmt.Fprintln(os.Stderr, "       adasimctl task <status|results|wait|cancel|watch> -id <task-id>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		return fmt.Errorf("missing command")
	}
	c := client.New(*addr)
	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "submit":
		return cmdSubmit(c, args)
	case "explore":
		return cmdExplore(c, args)
	case "report":
		return cmdReport(c, args)
	case "task":
		return cmdTask(c, args)
	case "scenarios":
		return getPrint(c, "/v1/scenarios")
	case "health":
		return getPrint(c, "/healthz")
	case "cache":
		return cmdCache(c)
	case "workers":
		return getPrint(c, "/v1/workers")
	default:
		flag.Usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func cmdSubmit(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		specPath  = fs.String("spec", "", "job spec JSON file ('-' = stdin); overrides the spec flags")
		scenarios = fs.String("scenarios", "", "comma-separated scenario ids (default: all)")
		gaps      = fs.String("gaps", "", "comma-separated initial gaps in metres (default: 60,230)")
		reps      = fs.Int("reps", 1, "repetitions per configuration")
		steps     = fs.Int("steps", 0, "steps per run (0 = paper default)")
		seed      = fs.Int64("seed", 1, "base seed")
		salt      = fs.Int64("salt", 0, "campaign salt")
		fault     = fs.String("fault", "none", "fault target: none|rd|curv|mixed")
		driver    = fs.Bool("driver", false, "enable the driver reaction model")
		check     = fs.Bool("check", false, "enable the firmware safety checker")
		aeb       = fs.String("aeb", "off", "AEBS source: off|comp|indep")
		monitor   = fs.Bool("monitor", false, "enable the runtime anomaly monitor")
		priority  = fs.String("priority", "", "scheduling class: interactive|bulk (default: kind default)")
		wait      = fs.Bool("wait", false, "wait for completion and print the results")
	)
	fs.Parse(args)

	var spec service.JobSpec
	if *specPath != "" {
		b, err := readFileOrStdin(*specPath)
		if err != nil {
			return err
		}
		// Strict decode shared with the server: a typo'd field fails here
		// instead of silently running a different campaign.
		if spec, err = service.DecodeSpec(b); err != nil {
			return fmt.Errorf("parsing %s: %w", *specPath, err)
		}
	} else {
		var err error
		if spec, err = specFromFlags(*scenarios, *gaps, *reps, *steps, *seed, *salt,
			*fault, *driver, *check, *aeb, *monitor); err != nil {
			return err
		}
	}

	return submitAndMaybeWait(c, "jobs", spec, *priority, *wait)
}

func specFromFlags(scenarioArg, gapArg string, reps, steps int, seed, salt int64,
	fault string, driver, check bool, aeb string, monitor bool) (service.JobSpec, error) {
	spec := service.JobSpec{Reps: reps, Steps: steps, BaseSeed: seed, Salt: salt}
	var err error

	if scenarioArg != "" {
		for _, part := range strings.Split(scenarioArg, ",") {
			id, err := strconv.Atoi(strings.TrimPrefix(strings.TrimSpace(part), "S"))
			if err != nil {
				return spec, fmt.Errorf("bad scenario %q: %w", part, err)
			}
			spec.Scenarios = append(spec.Scenarios, scenario.ID(id))
		}
	}
	if gapArg != "" {
		for _, part := range strings.Split(gapArg, ",") {
			gap, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return spec, fmt.Errorf("bad gap %q: %w", part, err)
			}
			spec.Gaps = append(spec.Gaps, gap)
		}
	}
	if spec.Fault, err = explore.ParseFault(fault); err != nil {
		return spec, err
	}
	if spec.Interventions, err = explore.ParseInterventions(driver, check, aeb, monitor); err != nil {
		return spec, err
	}
	return spec, nil
}

func cmdExplore(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	specPath := fs.String("spec", "", "exploration spec JSON file ('-' = stdin); overrides the spec flags")
	priority := fs.String("priority", "", "scheduling class: interactive|bulk (default: kind default)")
	wait := fs.Bool("wait", false, "wait for completion and print the report")
	var sf explore.SpecFlags
	sf.Register(fs)
	fs.Parse(args)

	var spec explore.Spec
	var err error
	if *specPath != "" {
		b, err := readFileOrStdin(*specPath)
		if err != nil {
			return err
		}
		if spec, err = explore.DecodeSpec(b); err != nil {
			return fmt.Errorf("parsing %s: %w", *specPath, err)
		}
	} else if spec, err = sf.Spec(); err != nil {
		return err
	}

	return submitAndMaybeWait(c, "explorations", spec, *priority, *wait)
}

func cmdReport(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	var (
		specPath  = fs.String("spec", "", "report spec JSON file ('-' = stdin); overrides the spec flags")
		artifacts = fs.String("artifacts", "", "comma-separated artifacts (default: all; see report.Artifacts)")
		reps      = fs.Int("reps", 0, "repetitions per configuration (0 = paper's 10)")
		steps     = fs.Int("steps", 0, "steps per run (0 = paper default)")
		seed      = fs.Int64("seed", 1, "base seed")
		priority  = fs.String("priority", "", "scheduling class: interactive|bulk (default: kind default)")
		wait      = fs.Bool("wait", false, "wait for completion and print the artifacts")
	)
	fs.Parse(args)

	var spec report.Spec
	if *specPath != "" {
		b, err := readFileOrStdin(*specPath)
		if err != nil {
			return err
		}
		if spec, err = report.DecodeSpec(b); err != nil {
			return fmt.Errorf("parsing %s: %w", *specPath, err)
		}
	} else {
		spec = report.Spec{Reps: *reps, Steps: *steps, BaseSeed: *seed}
		if *artifacts != "" {
			for _, part := range strings.Split(*artifacts, ",") {
				spec.Artifacts = append(spec.Artifacts, strings.TrimSpace(part))
			}
		}
	}

	return submitAndMaybeWait(c, "reports", spec, *priority, *wait)
}

// submitAndMaybeWait is the one submission flow every kind shares:
// submit through the unified task API (with an optional priority-class
// override), then either print the accepted view or wait for a terminal
// state and print the byte-exact results.
func submitAndMaybeWait(c *client.Client, kind string, spec any, priority string, wait bool) error {
	view, err := c.SubmitTask(kind, spec, service.PriorityClass(priority))
	if err != nil {
		return err
	}
	if !wait {
		return printJSON(view)
	}
	final, err := c.WaitTask(view.ID)
	if err != nil {
		return err
	}
	if final.Status != service.StatusDone {
		return fmt.Errorf("%s %s %s: %s", final.Kind, final.ID, final.Status, final.Error)
	}
	return getPrint(c, "/v1/tasks/"+final.ID+"/results")
}

// cmdTask is the uniform verb surface of the unified task API: the same
// status/results/wait/cancel flow for every kind, addressed by task ID.
func cmdTask(c *client.Client, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: adasimctl task <status|results|wait|cancel|watch> -id <task-id>")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "status":
		return cmdTaskGet(c, rest, "")
	case "results":
		return cmdTaskGet(c, rest, "/results")
	case "wait":
		id, err := parseID(rest)
		if err != nil {
			return err
		}
		view, err := c.WaitTask(id)
		if err != nil {
			return err
		}
		return printJSON(view)
	case "cancel":
		id, err := parseID(rest)
		if err != nil {
			return err
		}
		view, err := c.CancelTask(id)
		if err != nil {
			return err
		}
		return printJSON(view)
	case "watch":
		id, err := parseID(rest)
		if err != nil {
			return err
		}
		return c.WatchTask(id, func(ev service.TimelineEvent) {
			if ev.Detail != "" {
				fmt.Printf("%s  %-16s %s\n", ev.TS.Format(time.RFC3339), ev.Event, ev.Detail)
				return
			}
			fmt.Printf("%s  %s\n", ev.TS.Format(time.RFC3339), ev.Event)
		})
	default:
		return fmt.Errorf("unknown task verb %q (want status|results|wait|cancel|watch)", sub)
	}
}

// parseID extracts the -id flag.
func parseID(args []string) (string, error) {
	fs := flag.NewFlagSet("task", flag.ExitOnError)
	id := fs.String("id", "", "task id")
	fs.Parse(args)
	if *id == "" {
		return "", fmt.Errorf("-id is required")
	}
	return *id, nil
}

// cmdTaskGet fetches /v1/tasks/<id><suffix> for the -id flag.
func cmdTaskGet(c *client.Client, args []string, suffix string) error {
	id, err := parseID(args)
	if err != nil {
		return err
	}
	return getPrint(c, "/v1/tasks/"+id+suffix)
}

// cmdCache renders the result-cache slice of /healthz: the in-memory
// LRU counters, and — when the disk tier is on — the segment store's
// segment/index/byte accounting and its compaction and GC history.
func cmdCache(c *client.Client) error {
	var health service.HealthResponse
	if err := c.GetJSON("/healthz", &health); err != nil {
		return err
	}
	st := health.Cache
	fmt.Printf("memory tier: %d/%d entries, %d hits (%d from disk), %d misses, %d evictions\n",
		st.Entries, st.MaxSize, st.Hits, st.DiskHits, st.Misses, st.Evictions)
	if st.Disk == nil {
		fmt.Println("disk tier: off")
		return nil
	}
	d := st.Disk
	fmt.Printf("segment store: %d segments, %d indexed keys, %d live bytes, %d dead bytes",
		d.Segments, d.IndexEntries, d.LiveBytes, d.DeadBytes)
	if d.MaxBytes > 0 {
		fmt.Printf(" (budget %d)", d.MaxBytes)
	}
	fmt.Println()
	fmt.Printf("maintenance: %d compactions, %d segments gc'd (%d bytes), %d corrupt records\n",
		d.Compactions, d.GCSegments, d.GCBytes, d.CorruptRecords)
	if e := st.DiskErrors; e.Read+e.Write+e.Decode > 0 {
		fmt.Printf("disk errors: %d read, %d write, %d decode\n", e.Read, e.Write, e.Decode)
	}
	return nil
}

// getPrint fetches path and prints the raw response body, preserving the
// server's byte-exact encoding.
func getPrint(c *client.Client, path string) error {
	b, err := c.GetRaw(path)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}

func printJSON(v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func readFileOrStdin(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}
