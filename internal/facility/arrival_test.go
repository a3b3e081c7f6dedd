package facility

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// arrivalInput is one named job trace for the arrival-order tests.
type arrivalInput struct {
	name string
	jobs []Job
}

// arrivalOrderInputs returns a small generated workload in submit order
// plus three variants whose arrival order the event loop must recover
// itself: the trace reversed, the trace shuffled by a seeded RNG, and
// the trace rounded to whole seconds (submits, runtimes and limits), so
// arrivals tie with each other and with completions.
func arrivalOrderInputs(t testing.TB) []arrivalInput {
	t.Helper()
	base, err := Generate(WorkloadSpec{
		Seed: 11, Jobs: 200, Tenants: 6, Slots: 16, MaxNP: 4,
		Classes: []string{"is", "ep"}, Horizon: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	reversed := make([]Job, len(base))
	for i, j := range base {
		reversed[len(base)-1-i] = j
	}
	shuffled := append([]Job(nil), base...)
	rng := sim.NewRNG(17)
	for i := len(shuffled) - 1; i > 0; i-- {
		k := rng.Intn(i + 1)
		shuffled[i], shuffled[k] = shuffled[k], shuffled[i]
	}
	tied := append([]Job(nil), base...)
	for i := range tied {
		tied[i].Submit = math.Round(tied[i].Submit)
		tied[i].Runtime = math.Round(tied[i].Runtime)
		tied[i].Limit = math.Round(tied[i].Limit)
	}
	return []arrivalInput{
		{"sorted", base}, {"reversed", reversed}, {"shuffled", shuffled}, {"tied", tied},
	}
}

// TestRunStreamArrivalOrderGolden pins the outcome digest of every
// arrival-order input under four configurations. Every committed
// artefact feeds the facility submit-ordered jobs, so this is the only
// coverage of unsorted and tied arrivals: the digests were captured from
// the event loop that queued every arrival in its event heap, and any
// other arrival mechanism must reproduce them bit for bit.
func TestRunStreamArrivalOrderGolden(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Slots: [NumPools]int{16}}},
		{"backfill", Config{Slots: [NumPools]int{16}, Backfill: true}},
		{"backfill+fairshare", Config{Slots: [NumPools]int{16}, Backfill: true, Fairshare: true, FairshareHalfLife: 600}},
		{"broker+spot", Config{
			Slots: [NumPools]int{16, 8, 8}, Prices: [NumPools]float64{0, 0.34, 0.68},
			Broker: staticTestBroker(), Spot: testSpot(),
		}},
	}
	want := map[string]string{
		"sorted/plain":                "0d0da7840b068c28ff8a7235763e6fda3bdc79a74c147173ff9370ee931f59ab",
		"sorted/backfill":             "66975d75b4af9ff8a787c9479a63cc9648d844c67b778e74b85b455f6ff940ec",
		"sorted/backfill+fairshare":   "936a90a1e50d7b0c1fe5b00a42dcb294e6a5df8c71cd1172f562b683fd15ab7c",
		"sorted/broker+spot":          "c0b7158ed9f69a8ec39ff5e78f14a69ed0eb0f56f62d073f8933f0eeafa7e613",
		"reversed/plain":              "c7a205639e8caeee4cc98af6019976737bb7a4757f8cef4b17dce37f16b39166",
		"reversed/backfill":           "47e6691076eb025c78796ac326c55bd7698a7daddc368d65407c8d10a0f98e3a",
		"reversed/backfill+fairshare": "cf91c8827c79fadc789b10999be4935d21cbd8d356a51e82d298d3ad311e55ee",
		"reversed/broker+spot":        "0d6b3a73f4be2f778bef9a86a43424ccb3e31d97f68cba3d23fcdfdfca65269a",
		"shuffled/plain":              "62384c9fee1b7b9b2ff4c7b38ccc6427ba1f499faee9967ef9800c000aff8cae",
		"shuffled/backfill":           "2e246c7eaa643fb61f9c8272cff02b07af5373d8a4141b009bee45b0891a4069",
		"shuffled/backfill+fairshare": "83a6beb166624b39ff82303f9b72d97ffc0dd79e8d8dcab58f6ae7af298bdc6c",
		"shuffled/broker+spot":        "0a479df3ce02924508c27dd11688c9c8c37a1c4af86a7ab7d82a2fe9112aab97",
		"tied/plain":                  "1bd16dd6caeca0bf4c160bafbac4d4406b34835c487a1817ecd292e00e24fa3d",
		"tied/backfill":               "a9d70ef044779f4b4a55c4e023e0c344ecaf4249575c1d6a8c8aee514ee687f9",
		"tied/backfill+fairshare":     "9b2e9a288f6987b3f67d2b9c826d7e764ca55c23fc82b6e8829dd32a8cad8dc2",
		"tied/broker+spot":            "a9609d37ee80666a08fe05909fd7ea276215d0230bb3b480c1fe7b80a4593088",
	}
	inputs := arrivalOrderInputs(t)
	assertTies(t, configs[0].cfg, inputs[3].jobs)
	for _, in := range inputs {
		for _, c := range configs {
			key := in.name + "/" + c.name
			got := Digest(mustRun(t, c.cfg, in.jobs))
			if got != want[key] {
				t.Errorf("%s: digest %s, want %s", key, got, want[key])
			}
		}
	}
}

// assertTies checks the tied input's premise: some arrivals share a
// submit time, and some arrive at the instant another job completes.
func assertTies(t *testing.T, cfg Config, jobs []Job) {
	t.Helper()
	submits := map[float64]int{}
	for _, j := range jobs {
		submits[j.Submit]++
	}
	shared, atCompletion := 0, 0
	for _, o := range mustRun(t, cfg, jobs).Outcomes {
		if submits[o.Submit] > 1 {
			shared++
		}
		if submits[o.End] > 0 {
			atCompletion++
		}
	}
	if shared == 0 || atCompletion == 0 {
		t.Fatalf("tied input: %d jobs share a submit time, %d complete at a submit time; want both > 0", shared, atCompletion)
	}
}
