package obs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// A record lends the recorder its Rates for the Record call only: a caller
// that refills the same map every decision must not rewrite what was kept.
func TestRecordKeepsItsOwnRates(t *testing.T) {
	for _, memCap := range []int{0, 4} {
		t.Run(fmt.Sprintf("cap=%d", memCap), func(t *testing.T) {
			var log bytes.Buffer
			f := NewFlightRecorder(&log, memCap)
			rates := map[string]float64{"a": 1, "b": 2}
			f.Record(Record{Type: "decision", At: 1, Rates: rates})
			rates["a"], rates["c"] = 10, 30
			f.Record(Record{Type: "health", At: 2})
			recs := f.Records()
			if got := recs[0].Rates; len(got) != 2 || got["a"] != 1 || got["b"] != 2 {
				t.Errorf("kept rates %v after the caller's map changed, want map[a:1 b:2]", got)
			}
			if recs[1].Rates != nil {
				t.Errorf("a record without rates kept %v, want nil", recs[1].Rates)
			}
			if err := f.Flush(); err != nil {
				t.Fatal(err)
			}
			logged, err := ReadLog(&log)
			if err != nil {
				t.Fatal(err)
			}
			if got := logged[0].Rates; len(got) != 2 || got["a"] != 1 {
				t.Errorf("logged rates %v, want map[a:1 b:2]", got)
			}
		})
	}
}

// Records hands out copies of the rates: once the buffer wraps and the
// recorder refills the evicted records' maps, a slice returned earlier still
// reads what was recorded.
func TestRecordsSurviveMapReuse(t *testing.T) {
	const memCap = 3
	f := NewFlightRecorder(nil, memCap)
	rates := map[string]float64{}
	record := func(i int) {
		rates["api"] = float64(i)
		f.Record(Record{Type: "decision", At: float64(i), Rates: rates})
	}
	for i := 0; i < memCap; i++ {
		record(i)
	}
	before := f.Records()
	for i := memCap; i < 4*memCap; i++ {
		record(i)
	}
	for i, rec := range before {
		if got := rec.Rates["api"]; got != float64(i) || len(rec.Rates) != 1 {
			t.Errorf("record %d of an earlier Records() now reads %v, want map[api:%d]", i, rec.Rates, i)
		}
	}
	for i, rec := range f.Records() {
		if want := float64(3*memCap + i); rec.Rates["api"] != want {
			t.Errorf("retained record %d reads %v, want map[api:%v]", i, rec.Rates, want)
		}
	}
	if f.Dropped() != 3*memCap {
		t.Errorf("%d records dropped, want %d", f.Dropped(), 3*memCap)
	}
}

// Records may run while another goroutine records: under -race this checks
// that the copies are taken under the recorder's lock, and that what Records
// returned is not written by later records.
func TestRecordsConcurrentWithRecord(t *testing.T) {
	f := NewFlightRecorder(nil, 8)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, rec := range f.Records() {
				if rec.Rates["api"] != rec.At {
					t.Errorf("record at %v reads rates %v", rec.At, rec.Rates)
					return
				}
			}
		}
	}()
	rates := map[string]float64{}
	for i := 0; i < 5000; i++ {
		rates["api"] = float64(i)
		f.Record(Record{Type: "decision", At: float64(i), Rates: rates})
	}
	close(stop)
	wg.Wait()
}
