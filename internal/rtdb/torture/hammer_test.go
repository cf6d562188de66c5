package torture

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultnet"
	"rtc/internal/rtdb/client"
)

// TestPartitionHammer is the race-grade chaos run behind `make
// race-partition`: 32 clients and one replica hammer a primary through a
// chaos-shaped fabric (split writes, jittered delivery) while a fault
// monkey cuts, stalls, and partitions links at random. Under -race this
// shakes out data races on every teardown, watchdog, and redial path; the
// sweep owns determinism — this test owns survival: after the monkey
// stops and the fabric heals, the stack must still serve, and every book
// must close on both nodes.
func TestPartitionHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos hammer: skipped in -short")
	}
	const (
		hammerClients = 32
		hammerEvents  = 60
		hammerRuntime = 1500 * time.Millisecond
	)

	fab := faultnet.NewFabric(1)
	defer fab.Close()
	fab.Chaos(9, 50*time.Microsecond)

	c := Config{}
	c.defaults()
	st, err := c.fabricStack(fab, 1, hammerClients+4)
	if err != nil {
		t.Fatal(err)
	}
	defer closeStack(t, st) // every book closes on both nodes after the chaos
	srv := st.srv

	// The clock driver: server chronons advance while the hammer runs.
	tickStop := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		for {
			select {
			case <-tickStop:
				return
			case <-time.After(time.Millisecond):
				_ = srv.Tick(1)
			}
		}
	}()

	// The fault monkey: random cuts, stalls, and one-way partitions, each
	// healed shortly after — a constant churn of the exact transitions the
	// watchdogs, eviction paths, and redial ladders synchronize on.
	monkeyStop := make(chan struct{})
	var monkeyWG sync.WaitGroup
	monkeyWG.Add(1)
	go func() {
		defer monkeyWG.Done()
		rng := rand.New(rand.NewPCG(99, 0x9e3779b97f4a7c15))
		ends := []string{"replica", partPrimary, "*"}
		for {
			select {
			case <-monkeyStop:
				return
			case <-time.After(time.Duration(5+rng.IntN(15)) * time.Millisecond):
			}
			from := ends[rng.IntN(len(ends))]
			switch rng.IntN(4) {
			case 0:
				fab.CutAll(from, "*")
			case 1:
				fab.StallAll(from, "*")
			case 2:
				fab.PartitionNow(faultnet.Direction{From: from, To: "*"})
			case 3:
				fab.PartitionNow(faultnet.Direction{From: "*", To: from})
			}
			select {
			case <-monkeyStop:
			case <-time.After(time.Duration(5+rng.IntN(10)) * time.Millisecond):
			}
			fab.Heal()
		}
	}()

	var wg sync.WaitGroup
	for id := 0; id < hammerClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			label := fmt.Sprintf("h%d", id)
			cl, err := client.Dial(partPrimary, client.Options{
				Name: label, Dialer: fab.Dialer(label),
				DialTimeout: 150 * time.Millisecond, CallTimeout: time.Second,
				WriteTimeout:  150 * time.Millisecond,
				RetryAttempts: 4, RetryBackoff: time.Millisecond,
				RetryBackoffMax:   10 * time.Millisecond,
				HeartbeatInterval: 25 * time.Millisecond,
				Seed:              uint64(id + 1),
			})
			if err != nil {
				return // a monkey strike killed the handshake: fine, chaos won
			}
			defer cl.Close()
			if id%8 == 0 {
				if sub, err := cl.Subscribe(client.SubSpec{
					Query: "status_q", Period: 3, Kind: deadline.Soft,
					Deadline: 1 << 20, MinUseful: 1, Buffer: 64,
				}); err == nil {
					go func() {
						for range sub.Pushes() {
						}
					}()
					defer sub.Close()
				}
			}
			images := []string{"temp", "press"}
			for i := 0; i < hammerEvents; i++ {
				_ = cl.InjectSample(images[i%2], fmt.Sprintf("%d", 15+i%12))
				if i%3 == 2 {
					_, _ = cl.Query(statusQuery(deadline.Soft))
				}
				if i%7 == 6 {
					_ = cl.Flush()
				}
				time.Sleep(time.Duration(1+id%3) * time.Millisecond)
			}
		}(id)
	}

	time.Sleep(hammerRuntime)
	close(monkeyStop)
	monkeyWG.Wait()
	fab.Heal()
	wg.Wait()
	close(tickStop)
	tickWG.Wait()

	// Post-chaos liveness: a fresh client reaches the primary.
	cl, err := client.Dial(partPrimary, client.Options{
		Name: "post-chaos", Dialer: fab.Dialer("post-chaos"),
		DialTimeout: 500 * time.Millisecond, CallTimeout: 2 * time.Second,
		RetryAttempts: 6, RetryBackoff: time.Millisecond,
		RetryBackoffMax: 10 * time.Millisecond, Seed: 7,
	})
	if err != nil {
		t.Fatalf("post-chaos dial: %v", err)
	}
	if err := cl.InjectSample("temp", "20"); err != nil {
		t.Fatalf("post-chaos sample: %v", err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatalf("post-chaos flush: %v", err)
	}
	cl.Close()

	if err := srv.Barrier(); err != nil {
		t.Errorf("post-chaos barrier: %v", err)
	}
}

// closeStack tears st down and fails t with every book it left open.
func closeStack(t *testing.T, st *stack) {
	if err := st.close(); err != nil {
		t.Error(err)
	}
}
