// Quickstart: compile a tiny single-assignment (Idlite) program through the
// PODS pipeline, simulate it on a distributed-memory machine, and run the
// same binary program for real on share-nothing cluster workers.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	pods "repro"
)

const src = `
# Fill a matrix in parallel, then sum its diagonal sequentially.
func main(n: int) -> float {
	A = array(n, n);
	for i = 1 to n {
		for j = 1 to n {
			A[i, j] = float(i) * 0.5 + float(j);
		}
	}
	s = 0.0;
	for k = 1 to n {
		next s = s + A[k, k];
	}
	return s;
}
`

func main() {
	p, err := pods.Compile("quickstart.id", src)
	if err != nil {
		log.Fatal(err)
	}

	// What did the partitioner decide? The fill loop distributes with a
	// row Range Filter; the diagonal sum is loop-carried and stays serial.
	fmt.Print(p.PartitionReport())

	// Simulate on 1 and on 8 iPSC/2-like PEs.
	for _, pes := range []int{1, 8} {
		res, err := p.Simulate(pods.SimConfig{NumPEs: pes}, pods.Int(64))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%d PE(s): virtual time %8.3f ms, result %v\n",
			pes, res.Seconds()*1000, res.MainValue.F)
		fmt.Printf("         %s\n", res)
	}

	// Run the same SP program for real on 4 message-passing workers.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := p.ExecuteCluster(ctx, pods.ClusterConfig{NumPEs: 4}, pods.Int(64))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncluster runtime result: %v (must match the simulator)\n", out.Value.F)
}
