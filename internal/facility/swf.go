package facility

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Standard Workload Format ingestion: the parallel-workloads archive's
// trace format (Feitelson's SWF) is one job per line, 18
// whitespace-separated numeric fields, with ';' header/comment lines.
// ParseSWF maps the fields the facility models onto Job and applies the
// archive community's usual cleaning rules; everything it returns
// passes the facility's own job validation, the contract FuzzParseSWF
// pins.

// SWF field indices (0-based) of the 18-field record.
const (
	swfJobID = iota
	swfSubmit
	swfWait
	swfRuntime
	swfUsedProcs
	swfAvgCPU
	swfUsedMem
	swfReqProcs
	swfReqTime
	swfReqMem
	swfStatus
	swfUserID
	swfGroupID
	swfAppID
	swfQueueID
	swfPartID
	swfPrecedingJob
	swfThinkTime
	swfFields
)

// ParseSWF parses a Standard Workload Format trace into jobs, in file
// order (SWF traces are submit-ordered; the facility does not require
// it: RunStream walks unordered submits through a stable sort by submit
// time). Field mapping:
//
//	Submit  <- submit time (field 2)
//	Runtime <- run time (field 4), falling back to the requested time
//	NP      <- used processors (field 5), falling back to requested
//	Limit   <- requested time (field 9) when positive, else 0 (= Runtime)
//	Tenant  <- "u<user id>" (field 12)
//	Class   <- "app<app id>" (field 14), else "q<queue>" (15), else "swf"
//
// Records the facility cannot schedule — no positive runtime or
// processor count even after fallbacks (cancelled jobs, burst entries)
// — are skipped, the standard cleaning rule for this archive. Malformed
// lines (wrong field count, non-numeric or non-finite values, negative
// submit) are errors.
func ParseSWF(data []byte) ([]Job, error) {
	var jobs []Job
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == ';' || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != swfFields {
			return nil, fmt.Errorf("facility: swf line %d: %d fields, want %d", ln+1, len(f), swfFields)
		}
		v := make([]float64, swfFields)
		for i, s := range f {
			x, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("facility: swf line %d field %d: %v", ln+1, i+1, err)
			}
			if math.IsInf(x, 0) || math.IsNaN(x) {
				return nil, fmt.Errorf("facility: swf line %d field %d: non-finite value %s", ln+1, i+1, s)
			}
			v[i] = x
		}
		if v[swfSubmit] < 0 {
			return nil, fmt.Errorf("facility: swf line %d: negative submit time %g", ln+1, v[swfSubmit])
		}
		runtime := v[swfRuntime]
		if runtime <= 0 {
			runtime = v[swfReqTime]
		}
		np := int(v[swfUsedProcs])
		if np <= 0 {
			np = int(v[swfReqProcs])
		}
		if runtime <= 0 || np <= 0 {
			continue // cancelled or never-ran record: nothing to schedule
		}
		limit := 0.0
		if v[swfReqTime] > 0 {
			limit = v[swfReqTime]
		}
		class := "swf"
		switch {
		case v[swfAppID] >= 0:
			class = "app" + strconv.Itoa(int(v[swfAppID]))
		case v[swfQueueID] >= 0:
			class = "q" + strconv.Itoa(int(v[swfQueueID]))
		}
		jobs = append(jobs, Job{
			Tenant:  "u" + strconv.Itoa(int(v[swfUserID])),
			Class:   class,
			NP:      np,
			Runtime: runtime,
			Limit:   limit,
			Submit:  v[swfSubmit],
		})
	}
	return jobs, nil
}
