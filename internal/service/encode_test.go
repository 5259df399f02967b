package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"gpuvar/internal/core"
	"gpuvar/internal/jobs"
)

// The whole-struct forms of the responses whose bodies are built by
// the piecewise encoders (sweepPrefix + sweepVariantChunk… + sweepSuffix,
// requestPrefix + encodeAfterRequest). One json.MarshalIndent of these
// is the reference every encoder must reproduce byte for byte.
type (
	refSweepResponse struct {
		Request  sweepRequest   `json:"request"`
		Variants []sweepVariant `json:"variants"`
	}
	refExperimentResponse struct {
		Request experimentRequest `json:"request"`
		experimentResult
	}
	refCampaignResponse struct {
		Request campaignRequest `json:"request"`
		campaignResult
	}
)

func assertSameBody(t *testing.T, name string, got *cachedResponse, ref any) {
	t.Helper()
	want, err := jsonResponse(ref)
	if err != nil {
		t.Fatalf("%s: reference marshal: %v", name, err)
	}
	if !bytes.Equal(got.body, want.body) {
		t.Fatalf("%s: encoder bytes differ from the whole-struct reference\n got: %s\nwant: %s", name, got.body, want.body)
	}
}

// TestSweepEncoderMatchesReference covers every axis, plain and marked
// (estimate/adaptive) variants, at one, two and the plain-sweep maximum
// of 32 variants.
func TestSweepEncoderMatchesReference(t *testing.T) {
	valueOf := map[core.VariantAxis]func(i int) float64{
		core.AxisPowerCap: func(i int) float64 { return 300 - 5*float64(i) },
		core.AxisSeed:     func(i int) float64 { return float64(1 + i) },
		core.AxisAmbient:  func(i int) float64 { return -2 + 0.25*float64(i) },
		core.AxisFraction: func(i int) float64 { return float64(i+1) / 32 },
	}
	for axis, value := range valueOf {
		for _, marked := range []bool{false, true} {
			for _, n := range []int{1, 2, 32} {
				name := fmt.Sprintf("%s/marked=%v/n=%d", axis, marked, n)
				req := sweepRequest{Cluster: "CloudLab", Iterations: 2, Axis: string(axis)}
				if marked {
					req.Adaptive, req.Threshold = true, 0.05
				}
				points := make([]core.VariantPoint, n)
				for i := range points {
					req.Values = append(req.Values, value(i))
					points[i] = core.VariantPoint{
						Axis: axis, Value: value(i), GPUs: 12 + i,
						MedianMs: 10.123456789 + float64(i)/7, PerfVar: 0.0312 * float64(i+1),
						NOutliers: i % 3, Estimated: i%2 == 0, Bound: 0.01 + float64(i)/1000,
					}
				}
				if _, _, _, err := normalizeSweep(&req); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, err := renderSweep(req, axis, marked, points)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ref := refSweepResponse{Request: req}
				for _, p := range points {
					ref.Variants = append(ref.Variants, sweepVariantView(axis, marked, p))
				}
				assertSameBody(t, name, got, ref)
			}
		}
	}
}

// TestEstimateEncoderMatchesReference runs a real estimate through the
// /v1/estimate computation and checks its body against the reference.
func TestEstimateEncoderMatchesReference(t *testing.T) {
	var points []core.VariantPoint
	run := estimateSweepRun
	estimateSweepRun = func(ctx context.Context, exp core.Experiment, axis core.VariantAxis, values []float64) ([]core.VariantPoint, error) {
		pts, err := run(ctx, exp, axis, values)
		points = pts
		return pts, err
	}
	defer func() { estimateSweepRun = run }()

	req := sweepRequest{Cluster: "CloudLab", Iterations: 2, Axis: "powercap", Values: []float64{300, 260, 220, 180}}
	_, compute, _, err := estimateComputation(&req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := compute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref := refSweepResponse{Request: req}
	for _, p := range points {
		ref.Variants = append(ref.Variants, sweepVariantView(core.AxisPowerCap, true, p))
	}
	assertSameBody(t, "estimate", got, ref)
}

// TestExperimentEncoderMatchesReference checks all three detail levels
// of one experiment result.
func TestExperimentEncoderMatchesReference(t *testing.T) {
	var res *core.Result
	for _, detail := range []string{"summary", "groups", "gpus"} {
		r := httptest.NewRequest("GET", "/v1/experiments/sgemm?cluster=CloudLab&iterations=2&detail="+detail, nil)
		r.SetPathValue("name", "sgemm")
		req, exp, _, err := parseExperiment(r)
		if err != nil {
			t.Fatal(err)
		}
		if res == nil { // the detail level only changes the rendering
			if res, err = core.RunCtx(context.Background(), exp); err != nil {
				t.Fatal(err)
			}
		}
		prefix, err := requestPrefix(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeAfterRequest(prefix, renderExperiment(req, res))
		if err != nil {
			t.Fatal(err)
		}
		assertSameBody(t, "experiment/"+detail, got, refExperimentResponse{Request: req, experimentResult: renderExperiment(req, res)})
	}
}

// TestCampaignEncoderMatchesReference runs the campaign computation.
// Its result struct is built inside the computation, so the reference
// is the body decoded into the whole struct and marshalled again: any
// field the encoder dropped, doubled or reordered fails the compare.
func TestCampaignEncoderMatchesReference(t *testing.T) {
	var req campaignRequest
	if err := json.Unmarshal([]byte(campaignBody), &req); err != nil {
		t.Fatal(err)
	}
	_, compute, _, err := campaignComputation(&req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := compute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var ref refCampaignResponse
	if err := json.Unmarshal(got.body, &ref); err != nil {
		t.Fatal(err)
	}
	if ref.Request != req {
		t.Fatalf("campaign body request section = %+v, want %+v", ref.Request, req)
	}
	assertSameBody(t, "campaign", got, ref)
}

// TestRecoveredJobStreamReassemblesResult: a job recovered from the
// journal by a restarted server streams as an empty start line and a
// summary carrying the whole result body, through the same log-follow
// path as a live job.
func TestRecoveredJobStreamReassemblesResult(t *testing.T) {
	opts := Options{
		Figures: testServer().opts.Figures,
		DataDir: t.TempDir(),
	}
	srv1 := mustNew(opts)
	view := submitJob(t, srv1, `{"kind":"sweep","sweep":{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[300,250]}}`)
	if final := pollJob(t, srv1, view.URL); final.State != jobs.StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	want := doReq(t, srv1, "GET", view.URL+"/result", "").Body.Bytes()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := mustNew(opts)
	defer srv2.Close()
	rr := doReq(t, srv2, "GET", view.URL+"/stream", "")
	if rr.Code != 200 {
		t.Fatalf("recovered stream: %d %s", rr.Code, rr.Body)
	}
	lines, payload := decodeStream(t, rr.Body.Bytes())
	if len(lines) != 2 || lines[0].Payload != "" || lines[1].Kind != "summary" {
		t.Fatalf("recovered stream lines = %+v, want an empty start line and one summary", lines)
	}
	if !bytes.Equal(payload, want) {
		t.Fatal("recovered stream does not reassemble the job's result body")
	}
}
