package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func schedule(seed int64, rate float64, dur time.Duration) []arrival {
	return poissonSchedule(rand.New(rand.NewSource(seed)), rate, dur, warmPick)
}

func TestScheduleDeterministic(t *testing.T) {
	a := schedule(7, 300, 5*time.Second)
	b := schedule(7, 300, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 300, 5*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestScheduleShape(t *testing.T) {
	const rate = 450
	dur := 20 * time.Second
	s := schedule(3, rate, dur)
	want := rate * dur.Seconds()
	if n := float64(len(s)); math.Abs(n-want) > 4*math.Sqrt(want) {
		t.Errorf("%v arrivals at %v/s over %v, want about %v", n, rate, dur, want)
	}
	for i, a := range s {
		if a.at < 0 || a.at >= dur || (i > 0 && a.at < s[i-1].at) {
			t.Fatalf("arrival %d at %v is out of order or outside the phase", i, a.at)
		}
		if twelve := a.spec < warm12Specs; twelve != (i%warmMix12 == 0) {
			t.Fatalf("arrival %d resubmits spec %d: breaks the fixed 1-in-%d mix", i, a.spec, warmMix12)
		}
		if a.spec < 0 || a.spec >= warm12Specs+warm1Specs {
			t.Fatalf("arrival %d picks spec %d outside the working set", i, a.spec)
		}
	}
}

func TestFreshSeedsDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for stream := 0; stream < 4; stream++ {
		for i := 0; i < 1000; i++ {
			s := freshSeed(42, stream, i)
			if s < 0 || seen[s] {
				t.Fatalf("freshSeed(42, %d, %d) = %d repeats or is negative", stream, i, s)
			}
			seen[s] = true
		}
	}
	if freshSeed(1, 0, 0) == freshSeed(2, 0, 0) {
		t.Error("workload seed does not change the derived seeds")
	}
}
