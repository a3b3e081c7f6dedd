package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// chromeEvent mirrors the trace-event JSON schema written by
// internal/trace ("X" = complete event; ts/dur in microseconds).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// Run is one recorded run inside a Chrome trace file: merged multi-run
// traces distinguish runs by pid.
type Run struct {
	PID      int
	Timeline Timeline
}

// maxIdleRanks is how many rank timelines a trace may imply beyond its
// event count. Timelines are dense by rank and a recorded trace gives
// (nearly) every rank events, so a larger gap means a malformed tid, not
// a world to allocate for.
const maxIdleRanks = 1 << 16

// ParseChromeTrace reads a Chrome trace-event JSON file (as written by
// trace.Recorder.WriteChrome) back into analyzable timelines, one Run
// per pid, sorted by pid. The wait-state args written by the recorder
// (wait, queued, peer) round-trip exactly.
func ParseChromeTrace(r io.Reader) ([]Run, error) {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("obs: parsing chrome trace: %w", err)
	}
	byPID := map[int]map[int][]Event{}
	maxRank := map[int]int{}
	events := 0
	for _, ce := range doc.TraceEvents {
		if ce.Ph != "X" {
			continue
		}
		if ce.TID < 0 || ce.TID > math.MaxInt32 {
			return nil, fmt.Errorf("obs: event %q: tid %d is not a rank", ce.Name, ce.TID)
		}
		e := Event{
			Rank:   ce.TID,
			Name:   ce.Name,
			Kind:   ce.Cat,
			Start:  ce.TS / 1e6,
			Dur:    ce.Dur / 1e6,
			Peer:   -1,
			Region: ce.Args["region"],
		}
		if s := ce.Args["bytes"]; s != "" {
			n, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("obs: bad bytes arg %q: %w", s, err)
			}
			e.Bytes = n
		}
		var err error
		if e.Wait, err = floatArg(ce.Args, "wait"); err != nil {
			return nil, err
		}
		if e.Queued, err = floatArg(ce.Args, "queued"); err != nil {
			return nil, err
		}
		if s := ce.Args["peer"]; s != "" {
			n, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("obs: bad peer arg %q: %w", s, err)
			}
			e.Peer = n
		}
		ranks := byPID[ce.PID]
		if ranks == nil {
			ranks = map[int][]Event{}
			byPID[ce.PID] = ranks
		}
		ranks[ce.TID] = append(ranks[ce.TID], e)
		maxRank[ce.PID] = max(maxRank[ce.PID], ce.TID)
		events++
	}
	slots := 0
	for _, hi := range maxRank {
		slots += hi + 1
	}
	if slots > events+maxIdleRanks {
		return nil, fmt.Errorf("obs: trace implies %d rank timelines for %d events", slots, events)
	}
	runs := make([]Run, 0, len(byPID))
	for pid, ranks := range byPID {
		tl := make(Timeline, maxRank[pid]+1)
		for r, evs := range ranks {
			tl[r] = evs
		}
		runs = append(runs, Run{PID: pid, Timeline: tl.sorted()})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].PID < runs[j].PID })
	return runs, nil
}

func floatArg(args map[string]string, key string) (float64, error) {
	s := args[key]
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad %s arg %q: %w", key, s, err)
	}
	return v, nil
}
