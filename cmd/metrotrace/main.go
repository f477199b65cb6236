// metrotrace records, filters, summarizes and exports telemetry traces:
// the offline half of the simulator's flight recorder. A trace is the
// canonical mtr1 text stream (internal/telemetry's codec) and every
// subcommand is deterministic, so traces and reports diff cleanly.
//
// Usage:
//
//	metrotrace record -o trace.mtr                  # traced Figure 3 run
//	metrotrace record -network fig1 -load 0.6 -workers 4 -o trace.mtr
//	metrotrace summarize trace.mtr                  # lifecycle & latency report
//	metrotrace filter -kind msg -msg 42 trace.mtr   # select events, emit mtr1
//	metrotrace export -format perfetto trace.mtr    # chrome://tracing / Perfetto
//	metrotrace export -format csv -buckets 12 trace.mtr
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"metro"
	"metro/internal/netsim"
	"metro/internal/telemetry"
	"metro/internal/traffic"
)

const usage = `usage: metrotrace <command> [flags] [trace-file]

commands:
  record     run a traced simulation and write the mtr1 event stream
  summarize  aggregate a trace: lifecycles, latency breakdown, gauges
  filter     select events by family, kind, source, message or cycle window
  export     convert a trace to perfetto JSON or CSV latency histograms

run 'metrotrace <command> -h' for the command's flags.
`

func main() {
	if len(os.Args) < 2 {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "summarize":
		summarize(os.Args[2:])
	case "filter":
		filter(os.Args[2:])
	case "export":
		export(os.Args[2:])
	case "-h", "-help", "--help", "help":
		fmt.Print(usage)
	default:
		fmt.Fprintf(os.Stderr, "metrotrace: unknown command %q\n\n%s", os.Args[1], usage)
		os.Exit(2)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "metrotrace: "+format+"\n", args...)
	os.Exit(1)
}

// loadTrace reads the mtr1 trace named by the remaining argument.
func loadTrace(fs *flag.FlagSet) telemetry.Trace {
	if fs.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "metrotrace: expected exactly one trace file, got %d args\n", fs.NArg())
		os.Exit(2)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	t, err := telemetry.Decode(f)
	if err != nil {
		fatal("%s: %v", fs.Arg(0), err)
	}
	return t
}

// output opens -o, or stdout when it is empty.
func output(path string) io.WriteCloser {
	if path == "" {
		return os.Stdout
	}
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	return f
}

// record runs one closed-loop scenario with the flight recorder
// attached and writes the recorded stream.
func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	network := fs.String("network", "fig3", "topology: fig1, fig3, net32, net32r8")
	load := fs.Float64("load", 0.6, "offered load")
	pattern := fs.String("pattern", "uniform", "traffic: uniform, hotspot, bitrev, transpose")
	msgBytes := fs.Int("bytes", 20, "message payload bytes")
	cycles := fs.Uint64("cycles", 4000, "simulated cycles")
	width := fs.Int("width", 8, "channel width w")
	cascadeW := fs.Int("cascade", 1, "router width-cascade factor c")
	seed := fs.Int64("seed", 1, "simulation seed")
	detailed := fs.Bool("detailed", false, "detailed blocked replies instead of fast reclamation")
	workers := fs.Int("workers", 0, "workers that run the unit eval and the link shuttle; 0 steps the engine on one goroutine (results are bit-identical either way)")
	gaugePeriod := fs.Uint64("gauge-period", 1, "cycles between gauge samples")
	capacity := fs.Int("capacity", 0, "flight-recorder ring capacity in events (0 = default)")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "metrotrace record: unexpected arguments %v\n", fs.Args())
		os.Exit(2)
	}

	var spec metro.TopologySpec
	switch *network {
	case "fig1":
		spec = metro.Figure1Topology()
	case "fig3":
		spec = metro.Figure3Topology()
	case "net32":
		spec = metro.Topology32()
	case "net32r8":
		spec = metro.Topology32Radix8()
	default:
		fmt.Fprintf(os.Stderr, "metrotrace record: unknown network %q\n", *network)
		os.Exit(2)
	}
	var pat traffic.Pattern
	switch *pattern {
	case "uniform":
		pat = traffic.Uniform{}
	case "hotspot":
		pat = traffic.Hotspot{Target: 0, Fraction: 0.3}
	case "bitrev":
		pat = traffic.BitReverse{}
	case "transpose":
		pat = traffic.Transpose{}
	default:
		fmt.Fprintf(os.Stderr, "metrotrace record: unknown pattern %q\n", *pattern)
		os.Exit(2)
	}

	rec := telemetry.New(telemetry.Options{Capacity: *capacity})
	_, err := traffic.Run(traffic.RunSpec{
		Net: netsim.Params{
			Spec:          spec,
			Width:         *width,
			CascadeWidth:  *cascadeW,
			LinkDelay:     1,
			FastReclaim:   !*detailed,
			Seed:          *seed,
			RetryLimit:    1000,
			ListenTimeout: 300,
			Workers:       *workers,
			Recorder:      rec,
			GaugePeriod:   *gaugePeriod,
		},
		Load:          *load,
		MsgBytes:      *msgBytes,
		Pattern:       pat,
		Outstanding:   1,
		MeasureCycles: *cycles,
		Seed:          *seed + 1000,
	})
	if err != nil {
		fatal("%v", err)
	}
	w := output(*out)
	if err := telemetry.Encode(w, rec.Snapshot()); err != nil {
		fatal("%v", err)
	}
	if err := w.Close(); err != nil {
		fatal("%v", err)
	}
}

func summarize(args []string) {
	fs := flag.NewFlagSet("summarize", flag.ExitOnError)
	fs.Parse(args)
	fmt.Print(telemetry.Summarize(loadTrace(fs)).Render())
}

// filter selects a subset of a trace's events and re-emits mtr1, so
// filters compose with summarize/export through pipes or temp files.
func filter(args []string) {
	fs := flag.NewFlagSet("filter", flag.ExitOnError)
	family := fs.String("family", "", "keep one event family: msg, conn, fault, gauge")
	kindArg := fs.String("kind", "", "comma-separated kind mnemonics to keep (e.g. MSG-QUEUED,CONN-SETUP)")
	src := fs.String("src", "", "keep events from one source (e.g. ep3, s1r4, s1r4.m1, net.s0)")
	msg := fs.Uint64("msg", 0, "keep one message's lifecycle (message IDs start at 1)")
	from := fs.Uint64("from", 0, "keep cycles >= from")
	to := fs.Uint64("to", ^uint64(0), "keep cycles <= to")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	t := loadTrace(fs)

	kinds := map[telemetry.Kind]bool{}
	if *kindArg != "" {
		for _, name := range strings.Split(*kindArg, ",") {
			k, ok := telemetry.KindByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "metrotrace filter: unknown kind %q\n", name)
				os.Exit(2)
			}
			kinds[k] = true
		}
	}

	kept := t.Events[:0]
	for _, e := range t.Events {
		if *family != "" && e.Kind.Family() != *family {
			continue
		}
		if len(kinds) > 0 && !kinds[e.Kind] {
			continue
		}
		if *src != "" && e.Src.String() != *src {
			continue
		}
		if *msg != 0 && e.Msg != *msg {
			continue
		}
		if e.Cycle < *from || e.Cycle > *to {
			continue
		}
		kept = append(kept, e)
	}
	// Total keeps counting the recorder's full stream: dropped-event
	// accounting in summaries stays truthful about the ring window, and
	// the filtered events add nothing to it.
	filtered := telemetry.Trace{Events: kept, Total: t.Total}
	w := output(*out)
	if err := telemetry.Encode(w, filtered); err != nil {
		fatal("%v", err)
	}
	if err := w.Close(); err != nil {
		fatal("%v", err)
	}
}

func export(args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	format := fs.String("format", "perfetto", "output format: perfetto (chrome trace-event JSON) or csv (latency histograms)")
	buckets := fs.Int("buckets", 20, "histogram buckets per latency phase (csv)")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if *format != "perfetto" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "metrotrace export: unknown format %q\n", *format)
		os.Exit(2)
	}
	t := loadTrace(fs)

	w := output(*out)
	var err error
	if *format == "perfetto" {
		err = telemetry.ExportPerfetto(w, t, telemetry.Summarize(t))
	} else {
		err = telemetry.ExportCSV(w, telemetry.Summarize(t), *buckets)
	}
	if err != nil {
		fatal("%v", err)
	}
	if err := w.Close(); err != nil {
		fatal("%v", err)
	}
}
