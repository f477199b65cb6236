// metrotrace filters, summarizes and exports telemetry traces: the
// offline half of the simulator's flight recorder, whose traces
// metrosim -trace and metrofault -trace write. A trace is the canonical
// mtr1 text stream (internal/telemetry's codec) and every subcommand is
// deterministic, so traces and reports diff cleanly.
//
// Usage:
//
//	metrosim -loads 0.6 -warmup 0 -trace trace.mtr  # record a Figure 3 point
//	metrotrace summarize trace.mtr                  # lifecycle & latency report
//	metrotrace filter -family msg -msg 42 trace.mtr # select events, emit mtr1
//	metrotrace export -format perfetto trace.mtr    # chrome://tracing / Perfetto
//	metrotrace export -format csv -buckets 12 trace.mtr
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"metro/internal/telemetry"
)

const usage = `usage: metrotrace <command> [flags] [trace-file]

commands:
  summarize  aggregate a trace: lifecycles, latency breakdown, gauges
  filter     select events by family, kind, source, message or cycle window
  export     convert a trace to perfetto JSON or CSV latency histograms

run 'metrotrace <command> -h' for the command's flags. Record a trace
with 'metrosim -trace' or 'metrofault -trace'.
`

func main() {
	if len(os.Args) < 2 {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	switch os.Args[1] {
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
	if *buckets < 1 {
		fmt.Fprintf(os.Stderr, "metrotrace export: -buckets %d is not a positive bucket count\n", *buckets)
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
