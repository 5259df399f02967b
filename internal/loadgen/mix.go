package loadgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
)

// Mix target labels (stable report keys).
const (
	SweepLabel    = "POST /v1/sweep"
	JobLabel      = "JOB  /v1/jobs (sweep)"
	EstimateLabel = "POST /v1/estimate"
	AdaptiveLabel = "POST /v1/sweep (adaptive)"
)

// MixConfig describes the request mix cmd/loadgen's flags select.
type MixConfig struct {
	Paths     []string // GET paths
	Sweep     string   // JSON body for POST /v1/sweep ("" = none)
	Jobs      bool     // run Sweep through the async job path too
	Estimate  bool     // route Sweep to the analytical tier instead
	Threshold float64  // adaptive-sweep tolerance for Estimate
}

// BuildMix validates the config and constructs the round-robin target
// list (and, with Estimate, the adaptive request body every adaptive
// target sends).
func BuildMix(cfg MixConfig) (targets []Target, adaptiveBody string, err error) {
	if cfg.Jobs && cfg.Sweep == "" {
		return nil, "", errors.New("-jobs requires -sweep (the job payload)")
	}
	if cfg.Estimate && cfg.Sweep == "" {
		return nil, "", errors.New("-estimate requires -sweep (the request to estimate)")
	}
	if cfg.Estimate && cfg.Jobs {
		return nil, "", errors.New("-estimate routes -sweep to the analytical tier; run -jobs in a separate invocation")
	}
	for _, p := range cfg.Paths {
		targets = append(targets, Target{Label: "GET " + p, Method: "GET", Path: p})
	}
	if cfg.Sweep != "" && !cfg.Estimate {
		targets = append(targets, Target{Label: SweepLabel, Method: "POST", Path: "/v1/sweep", Body: cfg.Sweep})
	}
	if cfg.Jobs {
		targets = append(targets, Target{Label: JobLabel, Method: MethodJob, Path: "/v1/jobs",
			Body: `{"kind":"sweep","sweep":` + cfg.Sweep + `}`})
	}
	if cfg.Estimate {
		adaptiveBody, err = AdaptiveSweepBody(cfg.Sweep, cfg.Threshold)
		if err != nil {
			return nil, "", err
		}
		targets = append(targets,
			Target{Label: EstimateLabel, Method: "POST", Path: "/v1/estimate", Body: cfg.Sweep},
			Target{Label: AdaptiveLabel, Method: "POST", Path: "/v1/sweep", Body: adaptiveBody})
	}
	if len(targets) == 0 {
		return nil, "", errors.New("the mix is empty: give -paths or -sweep")
	}
	return targets, adaptiveBody, nil
}

// AdaptiveSweepBody turns a sweep body into its adaptive spelling.
// json.Marshal reorders the keys, but the body only needs to be
// self-consistent: every adaptive request in the run sends these exact
// bytes, so the byte-identity machinery still has a fixed reference.
func AdaptiveSweepBody(body string, threshold float64) (string, error) {
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		return "", fmt.Errorf("parsing -sweep body: %v", err)
	}
	m["adaptive"] = true
	m["threshold"] = threshold
	out, err := json.Marshal(m)
	return string(out), err
}

// SweepStreamURL converts a sweep JSON body into the streaming
// endpoint's query-parameter spelling (values comma-joined), so
// both spellings describe the identical normalized request.
func SweepStreamURL(base, body string) (string, error) {
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		return "", fmt.Errorf("parsing -sweep body: %v", err)
	}
	num := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	q := url.Values{}
	for k, v := range m {
		switch vv := v.(type) {
		case string:
			q.Set(k, vv)
		case float64:
			q.Set(k, num(vv))
		case []any:
			parts := make([]string, len(vv))
			for i, e := range vv {
				f, ok := e.(float64)
				if !ok {
					return "", fmt.Errorf("-sweep field %q element %d is not a number", k, i)
				}
				parts[i] = num(f)
			}
			q.Set(k, strings.Join(parts, ","))
		default:
			return "", fmt.Errorf("-sweep field %q has unstreamable type %T", k, v)
		}
	}
	return base + "/v1/stream/sweep?" + q.Encode(), nil
}
