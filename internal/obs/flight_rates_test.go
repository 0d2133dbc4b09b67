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

// The recorder keeps copies of a record's vectors and quota map too: a
// controller that refills its load, raw answer and proposal every decision
// does not rewrite what was recorded.
func TestRecordKeepsItsOwnVectorsAndQuotas(t *testing.T) {
	for _, memCap := range []int{0, 4} {
		t.Run(fmt.Sprintf("cap=%d", memCap), func(t *testing.T) {
			f := NewFlightRecorder(nil, memCap)
			rec := Record{Type: "decision", At: 1, Load: []float64{10, 20}, Raw: []float64{300, 400},
				Applied: map[string]float64{"web": 300, "db": 400}}
			f.Record(rec)
			rec.Load[0], rec.Raw[1], rec.Applied["web"], rec.Applied["cache"] = -1, -1, -1, -1
			got := f.Records()[0]
			if got.Load[0] != 10 || got.Load[1] != 20 || got.Raw[0] != 300 || got.Raw[1] != 400 {
				t.Errorf("kept load %v and raw %v after the caller's vectors changed, want [10 20] and [300 400]", got.Load, got.Raw)
			}
			if len(got.Applied) != 2 || got.Applied["web"] != 300 || got.Applied["db"] != 400 {
				t.Errorf("kept applied %v after the caller's map changed, want map[db:400 web:300]", got.Applied)
			}
		})
	}
}

// Records hands out copies of every vector and map: once the buffer wraps
// and the recorder refills the evicted records' buffers, a slice returned
// earlier still reads what was recorded.
func TestRecordsSurviveBufferReuse(t *testing.T) {
	const memCap = 4
	f := NewFlightRecorder(nil, memCap)
	load, lo, hi, raw := make([]float64, 1), make([]float64, 1), make([]float64, 1), make([]float64, 1)
	applied, summary := map[string]float64{}, map[string]float64{}
	chaos := make([]string, 1)
	record := func(i int) {
		v := float64(i)
		load[0], lo[0], hi[0], raw[0], applied["web"], summary["n"] = v, v, v, v, v, v
		chaos[0] = fmt.Sprint(i)
		f.Record(Record{Type: "decision", At: v, Load: load, Lo: lo, Hi: hi, Raw: raw,
			Applied: applied, Summary: summary, Chaos: chaos})
	}
	for i := 0; i < memCap; i++ {
		record(i)
	}
	before := f.Records()
	for i := memCap; i < memCap+20; i++ {
		record(i)
	}
	for i, rec := range before {
		v := float64(i)
		if rec.Load[0] != v || rec.Lo[0] != v || rec.Hi[0] != v || rec.Raw[0] != v ||
			rec.Applied["web"] != v || rec.Summary["n"] != v || rec.Chaos[0] != fmt.Sprint(i) {
			t.Errorf("record %d of an earlier Records() now reads load %v lo %v hi %v raw %v applied %v summary %v chaos %v, want %d throughout",
				i, rec.Load, rec.Lo, rec.Hi, rec.Raw, rec.Applied, rec.Summary, rec.Chaos, i)
		}
	}
	for i, rec := range f.Records() {
		if want := float64(20 + i); rec.Load[0] != want || rec.Applied["web"] != want {
			t.Errorf("retained record %d reads load %v applied %v, want %v", i, rec.Load, rec.Applied, want)
		}
	}
}
