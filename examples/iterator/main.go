// Iterator: section 5.1's motivating use of snapshot semantics — "an
// appealing semantics to design an operation whose result depends on
// multiple elements of the data structure, like a Java Iterator".
//
// A producer keeps appending readings to a transactional queue and a
// consumer trims it, while an iterator built from a Snapshot transaction
// walks the live structure and sees a frozen, consistent view: entries
// form a contiguous sequence even though the endpoints churn under it.
package main

import (
	"fmt"
	"log"
	"sync"

	"repro"
	"repro/internal/txstruct"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tm := repro.New()
	q := txstruct.NewQueueOf[int](tm, repro.Snapshot)

	// Seed the window of readings.
	for i := 0; i < 16; i++ {
		if err := q.Enqueue(i); err != nil {
			return err
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	next := 16
	go func() { // producer: appends increasing readings
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := q.Enqueue(next); err != nil {
				log.Printf("enqueue: %v", err)
				return
			}
			next++
		}
	}()
	go func() { // consumer: trims the head
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := q.Dequeue(); err != nil {
				log.Printf("dequeue: %v", err)
				return
			}
		}
	}()

	// The iterator: one Snapshot transaction walking the whole queue.
	for round := 0; round < 5; round++ {
		var view []int
		err := tm.Atomically(repro.Snapshot, func(tx *repro.Tx) error {
			view = view[:0]
			q.EachTx(tx, func(v int) bool {
				view = append(view, v)
				return true
			})
			return nil
		})
		if err != nil {
			close(stop)
			wg.Wait()
			return err
		}
		// Consistency: the snapshot must be a contiguous ascending run.
		for i := 1; i < len(view); i++ {
			if view[i] != view[i-1]+1 {
				close(stop)
				wg.Wait()
				return fmt.Errorf("iterator saw a torn view: %v", view)
			}
		}
		if len(view) > 0 {
			fmt.Printf("snapshot %d: %d readings, [%d..%d] contiguous\n",
				round, len(view), view[0], view[len(view)-1])
		} else {
			fmt.Printf("snapshot %d: empty window\n", round)
		}
	}
	close(stop)
	wg.Wait()
	st := tm.Stats()
	fmt.Printf("iterators committed against %d old-version reads without aborting producers\n",
		st.SnapshotOldReads)
	return nil
}
