//! Span exporter for tools: Chrome-trace/Perfetto JSON. (People read a
//! [`SpanRecord`]'s one-line `Display`.)
//!
//! [`render_chrome_trace`] emits the Trace Event Format understood by
//! `chrome://tracing`, Perfetto's legacy importer, and Speedscope: a
//! `{"traceEvents": [...]}` object of complete (`"ph": "X"`) events with
//! microsecond timestamps. Nodes map to processes (`pid` + a
//! `process_name` metadata event) and traces map to threads within the
//! node, so one transaction reads as one lane per node in the UI.

use crate::metrics::json_str;
use crate::span::SpanRecord;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Renders spans as Chrome-trace JSON (Trace Event Format).
///
/// * Each span becomes a complete event: `ph:"X"` with `ts`/`dur` in
///   microseconds from the telemetry epoch.
/// * `pid` identifies the emitting node (assigned in first-appearance
///   order; a `process_name` metadata event carries the node name).
/// * `tid` identifies the trace within the node, keeping ids small —
///   the full 64-bit trace id rides in `args.trace` as hex.
pub fn render_chrome_trace(records: &[SpanRecord]) -> String {
    let mut pids: HashMap<&str, u64> = HashMap::new();
    let mut tids: HashMap<(u64, u64), u64> = HashMap::new();
    let mut events: Vec<String> = Vec::with_capacity(records.len() + 4);

    for record in records {
        let node = if record.node.is_empty() {
            "(unattributed)"
        } else {
            &record.node
        };
        let next_pid = pids.len() as u64 + 1;
        let pid = *pids.entry(node).or_insert_with(|| {
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{next_pid},\"tid\":0,\
                 \"args\":{{\"name\":{}}}}}",
                json_str(node)
            ));
            next_pid
        });
        let next_tid = tids.len() as u64 + 1;
        let tid = *tids.entry((pid, record.trace_id)).or_insert(next_tid);

        let mut args = String::from("{");
        if record.trace_id != 0 {
            let _ = write!(args, "\"trace\":\"{:#018x}\"", record.trace_id);
        }
        for (k, v) in record.fields.iter() {
            if args.len() > 1 {
                args.push(',');
            }
            let _ = write!(args, "{}:{}", json_str(k), json_str(&v.to_string()));
        }
        args.push('}');

        events.push(format!(
            "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\
             \"args\":{args}}}",
            json_str(record.name),
            record.start.as_micros(),
            record.duration.as_micros(),
        ));
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, event) in events.iter().enumerate() {
        out.push_str(event);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{FieldValue, Fields, TraceSink};
    use std::sync::Arc;
    use std::time::Duration;

    fn record(id: u64, name: &'static str, node: &str, trace_id: u64) -> SpanRecord {
        SpanRecord {
            name,
            fields: [("k", FieldValue::Owned("v\"q".into()))].into(),
            start: Duration::from_micros(10 * id),
            duration: Duration::from_micros(5),
            trace_id,
            node: node.into(),
        }
    }

    #[test]
    fn chrome_trace_has_events_and_process_names() {
        let records = vec![
            record(1, "peer.endorse", "peer0.org1", 7),
            record(2, "peer.commit", "peer0.org2", 7),
        ];
        let json = render_chrome_trace(&records);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"peer0.org1\""));
        assert!(json.contains("\"ts\":10"));
        assert!(json.contains("\"dur\":5"));
        assert!(!json.contains("\"parent\""), "spans are flat: {json}");
        assert!(json.contains("\"k\":\"v\\\"q\""), "fields escaped: {json}");
        // Two nodes -> two pids, same trace -> one tid lane per node.
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"pid\":2"));
    }

    /// Records using every [`FieldValue`] kind, a spilled fourth field, an
    /// unattributed node and escapes, in completion order.
    fn golden_records() -> Vec<SpanRecord> {
        let trace = 0xf68b_4df5_8e71_c2d9;
        let span = |name, fields: Fields, start_us, dur_us, trace_id, node: &str| SpanRecord {
            name,
            fields,
            start: Duration::from_micros(start_us),
            duration: Duration::from_micros(dur_us),
            trace_id,
            node: node.into(),
        };
        vec![
            span(
                "commit.stateless",
                Fields::default(),
                105,
                10,
                0,
                "peer0.org1",
            ),
            span(
                "peer.process_block",
                [("block", FieldValue::U64(7)), ("txs", FieldValue::U64(10))].into(),
                100,
                40,
                0,
                "peer0.org1",
            ),
            span(
                "peer.commit",
                [
                    ("code", FieldValue::Static("MVCC_READ_CONFLICT")),
                    ("a", FieldValue::U64(1)),
                    ("b", FieldValue::Shared(Arc::from("x"))),
                    ("c", FieldValue::Owned("tab\there".into())),
                ]
                .into(),
                25,
                3,
                trace,
                "",
            ),
            span(
                "peer.endorse",
                [
                    ("chaincode", FieldValue::Shared(Arc::from("trade"))),
                    ("function", FieldValue::Owned("of\"fer".into())),
                    ("result", FieldValue::Static("ok")),
                ]
                .into(),
                20,
                12,
                trace,
                "peer0.org2",
            ),
            span("orderer.order", Fields::default(), 0, 0, 1, "orderer"),
        ]
    }

    // The Chrome-trace golden was rendered from the same records when
    // span fields were still `String`s, less the span and parent ids
    // spans no longer carry.

    #[test]
    fn chrome_trace_golden() {
        assert_eq!(
            render_chrome_trace(&golden_records()),
            concat!(
                "{\"traceEvents\":[\n",
                r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"peer0.org1"}},"#,
                "\n",
                r#"{"name":"commit.stateless","ph":"X","ts":105,"dur":10,"pid":1,"tid":1,"args":{}},"#,
                "\n",
                r#"{"name":"peer.process_block","ph":"X","ts":100,"dur":40,"pid":1,"tid":1,"args":{"block":"7","txs":"10"}},"#,
                "\n",
                r#"{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"(unattributed)"}},"#,
                "\n",
                r#"{"name":"peer.commit","ph":"X","ts":25,"dur":3,"pid":2,"tid":2,"args":{"trace":"0xf68b4df58e71c2d9","code":"MVCC_READ_CONFLICT","a":"1","b":"x","c":"tab\there"}},"#,
                "\n",
                r#"{"name":"process_name","ph":"M","pid":3,"tid":0,"args":{"name":"peer0.org2"}},"#,
                "\n",
                r#"{"name":"peer.endorse","ph":"X","ts":20,"dur":12,"pid":3,"tid":3,"args":{"trace":"0xf68b4df58e71c2d9","chaincode":"trade","function":"of\"fer","result":"ok"}},"#,
                "\n",
                r#"{"name":"process_name","ph":"M","pid":4,"tid":0,"args":{"name":"orderer"}},"#,
                "\n",
                r#"{"name":"orderer.order","ph":"X","ts":0,"dur":0,"pid":4,"tid":4,"args":{"trace":"0x0000000000000001"}}"#,
                "\n",
                "]}\n",
            )
        );
    }

    #[test]
    fn text_golden() {
        let text: String = golden_records().iter().map(|r| format!("{r}\n")).collect();
        assert_eq!(
            text,
            concat!(
                "commit.stateless   node=peer0.org1     trace=-                  start= 105.000µs dur=  10.000µs\n",
                "peer.process_block node=peer0.org1     trace=-                  start= 100.000µs dur=  40.000µs [block=7 txs=10]\n",
                "peer.commit        node=-              trace=0xf68b4df58e71c2d9 start=  25.000µs dur=   3.000µs [code=MVCC_READ_CONFLICT a=1 b=x c=tab\there]\n",
                "peer.endorse       node=peer0.org2     trace=0xf68b4df58e71c2d9 start=  20.000µs dur=  12.000µs [chaincode=trade function=of\"fer result=ok]\n",
                "orderer.order      node=orderer        trace=0x0000000000000001 start=   0.000ns dur=   0.000ns\n",
            )
        );
    }

    /// Packing into a sink and resolving back is exact: the drained
    /// records equal `golden_records()`, so they render byte for byte as
    /// `chrome_trace_golden` and `text_golden` pin.
    #[test]
    fn golden_records_round_trip_through_a_sink() {
        let registry = crate::MetricsRegistry::new();
        let sink = TraceSink::new(8, registry.counter("evicted", "", &[]));
        for record in golden_records() {
            sink.push(record);
        }
        assert_eq!(sink.records(), golden_records());
        let drained = sink.drain();
        assert!(sink.is_empty());
        assert_eq!(drained, golden_records());
        assert_eq!(
            render_chrome_trace(&drained),
            render_chrome_trace(&golden_records())
        );
        let text = |records: &[SpanRecord]| -> String {
            records.iter().map(|r| format!("{r}\n")).collect()
        };
        assert_eq!(text(&drained), text(&golden_records()));
    }
}
