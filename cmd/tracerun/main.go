// Command tracerun executes a workload model on a virtual testbed, prints
// the per-rank accounting summary and an XMPI-style state timeline, and
// optionally writes the trace as JSON for later analysis.
//
// Usage:
//
//	tracerun [-cluster spec] -app lu.B.8 [-mapping 0-7]
//	         [-o trace.json] [-width 100] [-load node=avail,...]
//
// -cluster takes any cluster.FromSpec spec. A mapping or -load naming a
// node outside the topology, or a non-finite load, is an error.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"cbes/internal/cluster"
	"cbes/internal/mpisim"
	"cbes/internal/vcluster"
	"cbes/internal/workloads"
)

func main() {
	clusterName := flag.String("cluster", "grove", "topology spec: "+cluster.SpecHelp)
	app := flag.String("app", "lu.B.8", "workload name (see workloads.Lookup)")
	mappingFlag := flag.String("mapping", "", "node list, e.g. 0-7 (default: first N nodes)")
	out := flag.String("o", "", "write the trace as JSON to this file")
	width := flag.Int("width", 100, "timeline width in columns")
	loadFlag := flag.String("load", "", "static background load, e.g. 3=0.5,7=0.8")
	flag.Parse()

	topo, err := cluster.FromSpec(*clusterName)
	if err != nil {
		log.Fatal(err)
	}

	prog, err := workloads.Lookup(*app)
	if err != nil {
		log.Fatal(err)
	}

	mapping := make([]int, prog.Ranks)
	for i := range mapping {
		mapping[i] = i
	}
	if *mappingFlag != "" {
		ids, err := cluster.ParseNodeList(*mappingFlag, prog.Ranks)
		if err != nil {
			log.Fatal(err)
		}
		if len(ids) != prog.Ranks {
			log.Fatalf("mapping has %d nodes, %s needs %d", len(ids), prog.Name, prog.Ranks)
		}
		mapping = ids
	}

	var bg vcluster.Background
	if *loadFlag != "" {
		bg.Avail = map[int]float64{}
		for _, part := range strings.Split(*loadFlag, ",") {
			ns, as, ok := strings.Cut(part, "=")
			if !ok {
				log.Fatalf("bad -load entry %q", part)
			}
			node, err1 := strconv.Atoi(strings.TrimSpace(ns))
			avail, err2 := strconv.ParseFloat(strings.TrimSpace(as), 64)
			if err1 != nil || err2 != nil {
				log.Fatalf("bad -load entry %q", part)
			}
			bg.Avail[node] = avail
		}
	}

	opts := prog.Options()
	opts.RecordIntervals = true
	res, err := mpisim.RunAlone(topo, bg, mapping, prog.Body, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(res.Trace.Summary())
	fmt.Println()
	fmt.Print(res.Trace.RenderTimeline(*width))

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.Trace.Encode(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntrace written to %s\n", *out)
	}
}
