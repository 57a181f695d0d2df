// Service: run the CBES daemon in-process and query it over TCP the way an
// external workload manager (Condor/PBS/LSF-style) would: status, mapping
// comparison, and a scheduling request.
package main

import (
	"fmt"
	"log"
	"net"

	"cbes"
	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/service"
	"cbes/internal/workloads"
)

func main() {
	topo := cluster.NewOrangeGrove()
	sys := cbes.NewSystem(topo, cbes.Config{})
	defer sys.Close()
	sys.Calibrate(bench.Options{})

	prog := workloads.SMG2000(60, 8)
	intels := topo.NodesByArch(cluster.ArchIntel)
	sys.MustProfile(prog, intels[:8])

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := service.Serve(sys, l); err != nil {
			log.Printf("server stopped: %v", err)
		}
	}()
	fmt.Printf("cbesd serving on %s\n", l.Addr())

	c, err := service.Dial(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	st, err := c.Status()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("status: cluster %s, %d nodes, apps %v\n", st.Cluster, st.Nodes, st.Apps)

	east := intels[:6]
	west := intels[6:]
	split := append(append([]int{}, east[:4]...), west[:4]...)
	compact := east[:4]
	compact = append(compact, east[4], east[5], west[0], west[1])
	cmp, err := c.Compare(prog.Name, [][]int{split, compact})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compare: split-federation %.1fs vs mostly-east %.1fs -> best #%d\n",
		cmp.Seconds[0], cmp.Seconds[1], cmp.Best)

	dec, err := c.Schedule(prog.Name, "cs", intels, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedule: CS proposes %v, predicted %.1fs (%d evaluations, %dµs)\n",
		dec.Mapping, dec.Predicted, dec.Evaluations, dec.SchedulerMicros)
}
