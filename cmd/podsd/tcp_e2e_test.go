package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/partition"
)

// TestTCPMultiProcessAgainstInProcess is the real multi-process leg of the
// CI matrix: it builds the podsd binary, starts four workers as separate
// OS processes on loopback for every kernel in the registry, drives them
// over TCP, and diffs the dumped arrays bit-for-bit against the in-process
// channel-transport backend. The dynamic scheduling knobs rotate across
// kernels so stealing and adaptive repartitioning both get exercised over
// real sockets.
//
// The leg costs a couple of dozen process launches, so it is opt-in:
// set PODS_TCP_E2E=1 (the ci workflow's tcp-multiproc job does).
func TestTCPMultiProcessAgainstInProcess(t *testing.T) {
	if os.Getenv("PODS_TCP_E2E") == "" {
		t.Skip("set PODS_TCP_E2E=1 to run the multi-process TCP leg")
	}
	bin := filepath.Join(t.TempDir(), "podsd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building podsd: %v\n%s", err, out)
	}

	const (
		numWorkers = 4
		n          = 10
		pageElems  = 8
	)
	configs := []cluster.Config{
		{},
		{Steal: true},
		{Adapt: true},
		{Steal: true, Adapt: true},
	}
	for ki, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			prog, _, err := core.Compile(k.File(), k.Source, partition.Options{})
			if err != nil {
				t.Fatal(err)
			}
			args := k.Args(n)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			cfg := configs[ki%len(configs)]
			if k.Name == "relax" {
				// The drifting-skew kernel is the one whose rebinds can
				// engage: run it with adaptation and stealing over real
				// sockets (its rebinds are logged, not asserted).
				cfg = configs[3]
			}
			cfg.PageElems = pageElems

			// In-process reference run with the same knobs.
			ref := cfg
			ref.NumPEs = numWorkers
			refRes, err := cluster.Execute(ctx, prog, ref, args...)
			if err != nil {
				t.Fatalf("in-process run: %v", err)
			}

			// Four worker processes on loopback.
			tcp := cfg
			tcp.Workers = make([]string, numWorkers)
			for i := range tcp.Workers {
				tcp.Workers[i] = startWorkerProcess(t, ctx, bin, i)
			}
			tcpRes, err := cluster.Execute(ctx, prog, tcp, args...)
			if err != nil {
				t.Fatalf("tcp run (steal=%v adapt=%v): %v", cfg.Steal, cfg.Adapt, err)
			}

			for _, name := range k.Arrays {
				rv, rm, _, err := refRes.ReadArray(name)
				if err != nil {
					t.Fatal(err)
				}
				tv, tm, _, err := tcpRes.ReadArray(name)
				if err != nil {
					t.Fatal(err)
				}
				if len(tv) != len(rv) {
					t.Fatalf("%s: %d elements over TCP, %d in-process", name, len(tv), len(rv))
				}
				for i := range rv {
					if tm[i] != rm[i] || (rm[i] && tv[i] != rv[i]) {
						t.Fatalf("%s[%d]: tcp=%v/%v in-process=%v/%v (backends disagree)",
							name, i, tv[i], tm[i], rv[i], rm[i])
					}
				}
			}
			t.Logf("steal=%v adapt=%v: %d msgs, %d steals, %d rebounds",
				cfg.Steal, cfg.Adapt, tcpRes.Stats.MsgsSent, tcpRes.Stats.Steals, tcpRes.Stats.Rebounds)
		})
	}
}

// startWorkerProcess launches one `podsd -worker` OS process on a kernel-
// assigned loopback port and returns the address it reports. The process
// serves exactly one run and exits when the driver sends KStop; the
// cleanup reaps it (or kills it if the run never reached it).
func startWorkerProcess(t *testing.T, ctx context.Context, bin string, idx int) string {
	t.Helper()
	cmd := exec.Command(bin, "-worker", "-listen", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting worker %d: %v", idx, err)
	}
	t.Cleanup(func() {
		done := make(chan struct{})
		go func() {
			_ = cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			<-done
		}
	})

	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err != nil {
			errCh <- fmt.Errorf("worker %d produced no listen line: %w", idx, err)
			return
		}
		const prefix = "podsd worker listening on "
		if !strings.HasPrefix(line, prefix) {
			errCh <- fmt.Errorf("worker %d: unexpected line %q", idx, line)
			return
		}
		addrCh <- strings.TrimSpace(strings.TrimPrefix(line, prefix))
	}()
	select {
	case addr := <-addrCh:
		return addr
	case err := <-errCh:
		t.Fatal(err)
	case <-ctx.Done():
		t.Fatalf("worker %d: timed out waiting for listen address", idx)
	}
	return ""
}
