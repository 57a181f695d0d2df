// Command calibrate performs the off-line CBES calibration phase for a
// virtual testbed and stores the resulting network latency model in a CBES
// database directory.
//
// Usage:
//
//	calibrate [-cluster spec] [-db ./cbesdb] [-allpairs] [-v]
//
// -cluster takes any cluster.FromSpec spec (grove, centurion, fattree:16, ...).
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/db"
)

func main() {
	name := flag.String("cluster", "grove", "topology spec: "+cluster.SpecHelp)
	dir := flag.String("db", "./cbesdb", "CBES database directory")
	allPairs := flag.Bool("allpairs", false, "full O(N²) calibration instead of path-class representatives")
	verbose := flag.Bool("v", false, "print the calibrated classes")
	flag.Parse()

	topo, err := cluster.FromSpec(*name)
	if err != nil {
		log.Fatal(err)
	}

	store, err := db.Open(*dir)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("calibrating %s (%d nodes, %d switches)...\n",
		topo.Name, topo.NumNodes(), topo.NumSwitches())
	start := time.Now()
	model := bench.Calibrate(topo, bench.Options{AllPairs: *allPairs})
	fmt.Printf("calibration done in %.1fs (host time): %d path classes\n",
		time.Since(start).Seconds(), len(model.Classes))
	fmt.Printf("small-message latency spread across pairs: %.1f%%\n", model.Spread(1024)*100)

	if *verbose {
		var sigs []string
		for sig := range model.Classes {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			c := model.Classes[sig]
			fmt.Printf("  %-60s pairs=%4d  L(64B)=%8.1fµs  L(64KB)=%8.1fµs  cS=%5.1fµs\n",
				sig, c.Pairs, c.Curve.At(64)*1e6, c.Curve.At(64<<10)*1e6, c.CSend*1e6)
		}
	}

	if err := store.SaveModel(model); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model saved to %s\n", store.Dir())
}
