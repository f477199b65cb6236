// metrolat regenerates the paper's analytical tables from the Table 4
// latency model: Table 3 (METRO implementation points) and Table 5
// (contemporary routing technologies), plus arbitrary message-size
// evaluations of any implementation row.
//
// Usage:
//
//	metrolat -table 3          # METRO implementations (exact reproduction)
//	metrolat -table 4          # model components for every row
//	metrolat -table 5          # contemporary technology comparison
//	metrolat -bytes 64         # re-evaluate Table 3 for 64-byte messages
package main

import (
	"flag"
	"fmt"
	"os"

	"metro"
	"metro/internal/stats"
)

func main() {
	table := flag.Int("table", 3, "table to print: 3, 4 or 5")
	bytes := flag.Int("bytes", 20, "message payload size for the latency column")
	scale := flag.Int("scale", 0, "re-evaluate Table 3 for an N-endpoint network (power of two >= 8)")
	flag.Parse()

	if *bytes < 0 {
		fmt.Fprintf(os.Stderr, "metrolat: -bytes %d is negative\n", *bytes)
		os.Exit(2)
	}
	// A flag the chosen output ignores is an error, not a silent no-op.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case set["table"] && *scale != 0:
		fmt.Fprintln(os.Stderr, "metrolat: -table does not apply with -scale, which always re-evaluates Table 3")
		os.Exit(2)
	case set["bytes"] && *scale == 0 && (*table == 4 || *table == 5):
		fmt.Fprintf(os.Stderr, "metrolat: -bytes does not apply to -table %d, whose rows are fixed at t20,32\n", *table)
		os.Exit(2)
	}
	if *scale != 0 {
		if *scale < 8 || *scale&(*scale-1) != 0 {
			fmt.Fprintf(os.Stderr, "metrolat: -scale %d is not a power of two >= 8\n", *scale)
			os.Exit(2)
		}
		printScaled(*scale, *bytes)
		return
	}
	switch *table {
	case 3:
		printTable3(*bytes)
	case 4:
		printTable4()
	case 5:
		printTable5()
	default:
		fmt.Fprintf(os.Stderr, "metrolat: unknown table %d\n", *table)
		os.Exit(2)
	}
}

// printScaled re-targets every Table 3 implementation at an N-endpoint
// network (METROJR-style construction) and prints t<bytes>,N.
func printScaled(endpoints, payloadBytes int) {
	fmt.Printf("Table 3 implementations scaled to %d endpoints (t%d,%d in ns)\n\n",
		endpoints, payloadBytes, endpoints)
	t := stats.Table{Header: []string{"instance", "technology", "stages", "t_stg", "latency"}}
	for _, im := range metro.Table3() {
		s := im.Scaled(endpoints)
		t.Add(im.Name, im.Tech,
			fmt.Sprintf("%d", s.Stages()),
			fmt.Sprintf("%g ns", s.TStg()),
			fmt.Sprintf("%.0f ns", s.MessageLatency(payloadBytes)))
	}
	fmt.Print(t.String())
}

func printTable3(payloadBytes int) {
	fmt.Printf("Table 3: METRO implementation examples (t%d,32 in ns)\n\n", payloadBytes)
	t := stats.Table{Header: []string{
		"instance", "technology", "t_clk", "t_io", "t_stg", "t_bit", "stages", "t_model", "t_paper",
	}}
	paper := metro.PaperT2032()
	for i, im := range metro.Table3() {
		paperCell := "-"
		if payloadBytes == 20 && i < len(paper) {
			paperCell = fmt.Sprintf("%.0f", paper[i])
		}
		t.Add(
			im.Name, im.Tech,
			fmt.Sprintf("%g ns", im.TClk),
			fmt.Sprintf("%g ns", im.TIo),
			fmt.Sprintf("%g ns", im.TStg()),
			im.TBitLabel(),
			fmt.Sprintf("%d", im.Stages()),
			fmt.Sprintf("%.0f", im.MessageLatency(payloadBytes)),
			paperCell,
		)
	}
	fmt.Print(t.String())
}

func printTable4() {
	fmt.Println("Table 4: latency model components per implementation row")
	fmt.Println("  vtd = ceil((t_io+t_wire)/t_clk); t_stg = dp*t_clk + vtd*t_clk")
	fmt.Println("  hbits per Table 4; t20,32 = stages*t_stg + (160+hbits)*t_bit")
	fmt.Println()
	t := stats.Table{Header: []string{
		"instance", "technology", "vtd", "t_on_chip", "t_stg", "hbits", "t_bit/bit", "t20,32",
	}}
	for _, im := range metro.Table3() {
		t.Add(
			im.Name, im.Tech,
			fmt.Sprintf("%d", im.VTD()),
			fmt.Sprintf("%g ns", im.TOnChip()),
			fmt.Sprintf("%g ns", im.TStg()),
			fmt.Sprintf("%d", im.HBits()),
			fmt.Sprintf("%.3f ns", im.TBit()),
			fmt.Sprintf("%.0f ns", im.T2032()),
		)
	}
	fmt.Print(t.String())
}

func printTable5() {
	fmt.Println("Table 5: contemporary routing technologies, t20,32 estimates")
	fmt.Println()
	t := stats.Table{Header: []string{
		"router", "latency", "t_bit", "model t20,32", "paper t20,32",
	}}
	for _, b := range metro.Table5() {
		model := fmt.Sprintf("%.0f ns", b.Min())
		paper := fmt.Sprintf("%.0f ns", b.PaperMin)
		if b.PaperMax != b.PaperMin {
			model = fmt.Sprintf("%.0f -> %.0f ns", b.Min(), b.Max())
			paper = fmt.Sprintf("%.0f -> %.0f ns", b.PaperMin, b.PaperMax)
		}
		t.Add(b.Name, b.LatencyDesc, b.TBitDesc, model, paper)
	}
	fmt.Print(t.String())
	fmt.Println()
	fmt.Println("assumptions:")
	for _, b := range metro.Table5() {
		fmt.Printf("  %-16s %s\n", b.Name+":", b.Assumption)
	}
	// METRO reference points for the comparison the paper draws.
	orbit := metro.Table3()[0]
	custom := metro.Table3()[11]
	fmt.Println()
	fmt.Printf("METRO reference: %s %.0f ns, %s (%s) %.0f ns\n",
		orbit.Name, orbit.T2032(), custom.Name, custom.Tech, custom.T2032())
}
