package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the program
// in step: each list names exactly the metrics the program prints, in the
// same order and with the same units.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var got, want [][2]string
	for _, m := range b.PerLayer {
		got = append(got, [2]string{m.Name, m.Unit})
	}
	for _, m := range perLayerNames {
		want = append(want, [2]string{m.name, m.unit})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json per_layer:\n%v\nprogram:\n%v", got, want)
	}
	got, want = nil, nil
	for _, m := range b.EndToEnd {
		got = append(got, [2]string{m.Name, m.Unit})
	}
	for _, m := range endToEndNames {
		want = append(want, [2]string{m.name, m.unit})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json end_to_end:\n%v\nprogram:\n%v", got, want)
	}
}
