// Fixture: state.execute's wall-latency reads are audited in place with
// allow comments; everything else in the package is still checked.
package sched

import "time"

type state struct{ last time.Time }

func (s *state) execute() time.Duration {
	//lint:allow reprolint/detwall volatile wall-latency series only
	s.last = time.Now()
	//lint:allow reprolint/detwall volatile wall-latency series only
	return time.Since(s.last)
}

func (s *state) settle() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}

func (s *state) drain() time.Duration {
	//lint:allow reprolint/detrand an allow for another analyzer silences nothing here
	return time.Since(s.last) // want `time\.Since reads the wall clock`
}
