package pods_test

import (
	"context"
	"fmt"

	pods "repro"
)

// ExampleCompile shows the three-line path from Idlite source to a
// simulated distributed run.
func ExampleCompile() {
	p, err := pods.Compile("demo.id", `
func main(n: int) -> int {
	s = 0;
	for k = 1 to n {
		next s = s + k;
	}
	return s;
}`)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := p.Simulate(pods.SimConfig{NumPEs: 4}, pods.Int(100))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.MainValue.I)
	// Output: 5050
}

// ExampleProgram_Simulate reads back an I-structure array after a
// distributed fill.
func ExampleProgram_Simulate() {
	p := pods.MustCompile("fill.id", `
func main(n: int) {
	A = array(n);
	for i = 1 to n {
		A[i] = float(i * i);
	}
}`)
	res, err := p.Simulate(pods.SimConfig{NumPEs: 2}, pods.Int(4))
	if err != nil {
		fmt.Println(err)
		return
	}
	vals, _, dims, _ := res.Array("A")
	fmt.Println(dims, vals)
	// Output: [4] [1 4 9 16]
}

// ExampleProgram_ExecuteCluster runs a program for real on four
// share-nothing workers: the fill is spread over them, the distributed
// loop follows the data, and the gathered array equals the simulator's.
func ExampleProgram_ExecuteCluster() {
	p := pods.MustCompile("fill.id", `
func main(n: int) -> int {
	A = array(n);
	for i = 1 to n {
		A[i] = float(i * i);
	}
	return n;
}`)
	res, err := p.ExecuteCluster(context.Background(), pods.ClusterConfig{NumPEs: 4, PageElems: 2}, pods.Int(8))
	if err != nil {
		fmt.Println(err)
		return
	}
	vals, _, _, _ := res.Array("A")
	fmt.Println(res.Value.I, vals)
	// Output: 8 [1 4 9 16 25 36 49 64]
}

// ExampleProgram_PartitionReport shows the partitioner's §4.2.4 decisions:
// the fill loop distributes with a row Range Filter, the carried-scalar
// reduction stays serial.
func ExampleProgram_PartitionReport() {
	p := pods.MustCompile("mix.id", `
func main(n: int) -> float {
	A = array(n, n);
	for i = 1 to n {
		for j = 1 to n {
			A[i, j] = float(i + j);
		}
	}
	s = 0.0;
	for k = 1 to n {
		next s = s + A[k, k];
	}
	return s;
}`)
	fmt.Print(p.PartitionReport())
	// Output:
	// partition: 1 distributing allocates
	//   distribute main.i.L4 over i (RF=row on "A")
	//   serialize  main.k.L10 (LCD at k)
}
