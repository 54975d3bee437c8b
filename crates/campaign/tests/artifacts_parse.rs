//! The campaign's JSON artifacts parse: the committed `BENCH_campaign.json`,
//! every line of the smoke campaign's `--trace-out` stream, and a report
//! whose summaries hold a non-finite value (which `Summary::of` accepts).

use esrcg_campaign::{CampaignRunner, CampaignSpec, Summary};
use esrcg_cluster::validate_trace_json;

/// Parses `doc` with the repo's one JSON reader: nested as a member of an
/// otherwise empty trace document, it has to be well-formed JSON for
/// `validate_trace_json` to count zero events.
fn parse(doc: &str) -> Result<(), String> {
    let wrapped = format!("{{\"traceEvents\": [], \"doc\": {doc}}}");
    validate_trace_json(&wrapped).map(|events| assert_eq!(events, 0))
}

#[test]
fn the_wrapper_rejects_what_the_reader_rejects() {
    assert!(parse("{\"a\": [1, 2.5, null]}").is_ok());
    for bad in ["NaN", "{\"a\": 01}", "[1,]", "{} {}", "\"\\u+041\""] {
        assert!(parse(bad).is_err(), "{bad}");
    }
}

#[test]
fn the_committed_campaign_artifact_parses() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
    let text = std::fs::read_to_string(path).expect("BENCH_campaign.json is tracked");
    parse(&text).expect("BENCH_campaign.json is JSON");
}

#[test]
fn every_smoke_trace_line_parses_and_a_nan_summary_renders_null() {
    let mut report = CampaignRunner::new(2)
        .run(&CampaignSpec::smoke())
        .expect("smoke campaign runs");
    assert_eq!(report.run_traces.len(), report.planned_runs);
    for (i, line) in report.run_traces.iter().enumerate() {
        parse(line).unwrap_or_else(|e| panic!("trace line {i}: {e}: {line}"));
    }
    let summary = Summary::of(&[0.25, f64::NAN]).expect("non-empty");
    assert!(summary.max.is_nan(), "NaN sorts last");
    report.cells[0].overhead = Some(summary);
    let json = report.to_json();
    assert!(json.contains("\"median\": null, \"max\": null"));
    parse(&json).expect("a NaN summary still renders JSON");
}
