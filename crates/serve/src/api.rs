//! Endpoint routing and JSON body construction.
//!
//! Body builders are public and take *rows*, not the engine: the
//! end-to-end test feeds them rows selected independently by
//! [`musa_core::Campaign`] and asserts the HTTP bytes match what the
//! engine-backed handler produced — same serialiser, independent
//! selection logic.

use musa_core::{ConfigResult, MetricAgg, RowMetric};
use musa_obs::json::JsonObj;

use crate::engine::{Dim, QueryEngine, RowFilter};
use crate::http::{Request, Response};

/// Non-dimension query parameters accepted by the endpoints.
const RESERVED_PARAMS: [&str; 5] = ["metric", "k", "x", "y", "limit"];

/// Maximum and default row counts for `/rows`.
pub const ROWS_LIMIT_DEFAULT: usize = 50;
/// Upper bound on `/rows?limit=` and `/best?k=`.
pub const LIMIT_MAX: usize = 10_000;

/// One campaign row as a JSON object (deterministic key order).
pub fn row_json(r: &ConfigResult) -> String {
    let mut obj = JsonObj::new()
        .field_str("app", &r.app)
        .field_str("config", &r.config.label());
    for m in RowMetric::ALL {
        obj = obj.field_f64(m.name(), m.of(r));
    }
    obj.field_f64("gmemreq_per_s", r.gmemreq_per_s)
        .field_f64("mem_stretch", r.mem_stretch)
        .field_f64("region_efficiency", r.region_efficiency)
        .finish()
}

/// A JSON array of rows.
pub fn rows_json(rows: &[&ConfigResult]) -> String {
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&row_json(r));
    }
    out.push(']');
    out
}

fn filter_json(filter: &RowFilter) -> String {
    let mut obj = JsonObj::new();
    for (name, value) in filter.entries() {
        obj = obj.field_str(name, value);
    }
    obj.finish()
}

fn agg_json(agg: &MetricAgg) -> String {
    JsonObj::new()
        .field_u64("count", agg.count as u64)
        .field_f64("min", agg.min)
        .field_f64("max", agg.max)
        .field_f64("mean", agg.mean())
        .finish()
}

/// The `/best` response body for an already-selected row list.
pub fn best_body(
    filter: &RowFilter,
    metric: RowMetric,
    k: usize,
    rows: &[&ConfigResult],
) -> String {
    JsonObj::new()
        .field_str("endpoint", "best")
        .field_raw("filter", &filter_json(filter))
        .field_str("metric", metric.name())
        .field_u64("k", k as u64)
        .field_u64("count", rows.len() as u64)
        .field_raw("rows", &rows_json(rows))
        .finish()
}

/// The `/pareto` response body for an already-selected frontier.
pub fn pareto_body(
    filter: &RowFilter,
    x: RowMetric,
    y: RowMetric,
    rows: &[&ConfigResult],
) -> String {
    JsonObj::new()
        .field_str("endpoint", "pareto")
        .field_raw("filter", &filter_json(filter))
        .field_str("x", x.name())
        .field_str("y", y.name())
        .field_u64("count", rows.len() as u64)
        .field_raw("rows", &rows_json(rows))
        .finish()
}

/// Route a parsed request. The `bool` is the quit signal: `true` only
/// for an authorised `/quit`, after which the server should drain.
pub fn respond(engine: &QueryEngine, allow_quit: bool, req: &Request) -> (Response, bool) {
    if req.method != "GET" {
        return (Response::error(405, "only GET is supported"), false);
    }
    let resp = match req.path.as_str() {
        "/healthz" => {
            let health = engine.health();
            let mut body = JsonObj::new()
                .field_str("status", if health.degraded() { "degraded" } else { "ok" })
                .field_u64("rows", engine.len() as u64)
                .field_u64("quarantined", health.quarantined)
                .field_u64("files_skipped", health.files_skipped)
                .field_u64("tails_repaired", health.tails_repaired)
                .field_u64("pool_poisoned", health.pool_poisoned)
                .field_u64("quarantine_rotated", health.quarantine_rotated);
            // Distributed-campaign visibility: present only when a
            // `dse --listen` supervisor left a beacon beside the store.
            if let Some(dist) = engine.dist_status() {
                body = body
                    .field_u64("dist_workers", dist.workers)
                    .field_bool("dist_draining", dist.draining)
                    .field_bool("dist_stale", dist.stale);
            }
            // Integrity visibility: present only when `dse doctor`
            // left a verdict beacon beside the store.
            if let Some(doc) = engine.doctor_status() {
                body = body
                    .field_str("doctor_severity", &doc.severity)
                    .field_bool("doctor_repaired", doc.repaired)
                    .field_u64("doctor_checked_unix", doc.checked_unix);
            }
            Ok(Response::ok(body.finish()))
        }
        "/metrics" => match req.param("format") {
            None | Some("json") => Ok(Response::ok(
                JsonObj::new()
                    .field_bool("observability", musa_obs::COMPILED)
                    .field_raw("metrics", &musa_obs::snapshot().to_json())
                    .finish(),
            )),
            Some(other) => Err(Response::error(
                400,
                &format!("unknown format {other:?} (expected json)"),
            )),
        },
        "/rows" => handle_rows(engine, req),
        "/best" => handle_best(engine, req),
        "/pareto" => handle_pareto(engine, req),
        "/summary" => Ok(handle_summary(engine)),
        "/quit" if allow_quit => {
            return (
                Response::ok(JsonObj::new().field_str("status", "draining").finish()),
                true,
            )
        }
        _ => Err(Response::error(404, "no such endpoint")),
    };
    (resp.unwrap_or_else(|e| e), false)
}

/// Dimension constraints from the query string; unknown parameters are
/// a 400, not silently ignored — a typo like `apps=hydro` must not
/// quietly select the whole campaign.
fn filter_from(req: &Request) -> Result<RowFilter, Response> {
    let mut filter = RowFilter::new();
    for (key, value) in &req.query {
        match Dim::parse(key) {
            Some(dim) => filter.set(dim, value.clone()),
            None if RESERVED_PARAMS.contains(&key.as_str()) => {}
            None => {
                return Err(Response::error(400, &format!("unknown parameter {key:?}")));
            }
        }
    }
    Ok(filter)
}

fn metric_param(req: &Request, key: &str, default: RowMetric) -> Result<RowMetric, Response> {
    match req.param(key) {
        None => Ok(default),
        Some(raw) => RowMetric::parse(raw)
            .ok_or_else(|| Response::error(400, &format!("unknown metric {raw:?} for {key:?}"))),
    }
}

fn count_param(req: &Request, key: &str, default: usize) -> Result<usize, Response> {
    match req.param(key) {
        None => Ok(default),
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if (1..=LIMIT_MAX).contains(&n) => Ok(n),
            _ => Err(Response::error(
                400,
                &format!("{key:?} must be an integer in 1..={LIMIT_MAX}"),
            )),
        },
    }
}

fn handle_rows(engine: &QueryEngine, req: &Request) -> Result<Response, Response> {
    let filter = filter_from(req)?;
    let limit = count_param(req, "limit", ROWS_LIMIT_DEFAULT)?;
    let ids = engine.select(&filter);
    let shown: Vec<&ConfigResult> = ids.iter().take(limit).map(|&i| engine.row(i)).collect();
    Ok(Response::ok(
        JsonObj::new()
            .field_str("endpoint", "rows")
            .field_raw("filter", &filter_json(&filter))
            .field_u64("count", ids.len() as u64)
            .field_u64("returned", shown.len() as u64)
            .field_raw("rows", &rows_json(&shown))
            .finish(),
    ))
}

fn handle_best(engine: &QueryEngine, req: &Request) -> Result<Response, Response> {
    let filter = filter_from(req)?;
    let metric = metric_param(req, "metric", RowMetric::TimeNs)?;
    let k = count_param(req, "k", 1)?;
    let rows: Vec<&ConfigResult> = engine
        .top_k(&filter, metric, k)
        .into_iter()
        .map(|i| engine.row(i))
        .collect();
    Ok(Response::ok(best_body(&filter, metric, k, &rows)))
}

fn handle_pareto(engine: &QueryEngine, req: &Request) -> Result<Response, Response> {
    let filter = filter_from(req)?;
    let x = metric_param(req, "x", RowMetric::TimeNs)?;
    let y = metric_param(req, "y", RowMetric::EnergyJ)?;
    if x == y {
        return Err(Response::error(400, "x and y must be different metrics"));
    }
    let rows: Vec<&ConfigResult> = engine
        .pareto(&filter, x, y)
        .into_iter()
        .map(|i| engine.row(i))
        .collect();
    Ok(Response::ok(pareto_body(&filter, x, y, &rows)))
}

fn handle_summary(engine: &QueryEngine) -> Response {
    let mut apps = String::from("[");
    for (i, (app, count)) in engine.dim_values(Dim::App).iter().enumerate() {
        if i > 0 {
            apps.push(',');
        }
        let filter = RowFilter::new().with(Dim::App, *app);
        let best = engine.top_k(&filter, RowMetric::TimeNs, 1);
        let mut obj = JsonObj::new()
            .field_str("app", app)
            .field_u64("count", *count as u64);
        obj = match best.first() {
            Some(&id) => obj
                .field_str("best_config", engine.label(id))
                .field_f64("best_time_ns", engine.metric(RowMetric::TimeNs, id)),
            None => obj
                .field_raw("best_config", "null")
                .field_raw("best_time_ns", "null"),
        };
        apps.push_str(
            &obj.field_raw(
                "time_ns",
                &agg_json(&engine.aggregate(&filter, RowMetric::TimeNs)),
            )
            .field_raw(
                "energy_j",
                &agg_json(&engine.aggregate(&filter, RowMetric::EnergyJ)),
            )
            .finish(),
        );
    }
    apps.push(']');
    Response::ok(
        JsonObj::new()
            .field_str("endpoint", "summary")
            .field_u64("rows", engine.len() as u64)
            .field_raw("apps", &apps)
            .finish(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_request;
    use crate::synth::synthetic_results;
    use musa_obs::json::JsonValue;

    fn engine() -> QueryEngine {
        QueryEngine::new(synthetic_results(24))
    }

    fn get(engine: &QueryEngine, target: &str) -> Response {
        let head = format!("GET {target} HTTP/1.1\r\n\r\n");
        let req = parse_request(head.as_bytes()).unwrap();
        respond(engine, false, &req).0
    }

    #[test]
    fn endpoints_return_valid_json() {
        let e = engine();
        for target in [
            "/healthz",
            "/metrics",
            "/rows?app=hydro&limit=3",
            "/best?app=hydro&metric=energy_j&k=2",
            "/pareto?app=spmz&x=time_ns&y=energy_j",
            "/summary",
        ] {
            let resp = get(&e, target);
            assert_eq!(resp.status, 200, "{target}: {}", resp.body);
            JsonValue::parse(&resp.body)
                .unwrap_or_else(|err| panic!("{target} body not JSON ({err}): {}", resp.body));
        }
    }

    #[test]
    fn metrics_answers_json_only() {
        let e = engine();
        // json is the default and the one explicit spelling.
        let default = get(&e, "/metrics");
        assert_eq!(default.status, 200);
        JsonValue::parse(&default.body).unwrap();
        assert_eq!(get(&e, "/metrics?format=json"), default);
        // Any other format is a 400 that names the one it accepts.
        for target in ["/metrics?format=prometheus", "/metrics?format=xml"] {
            let resp = get(&e, target);
            assert_eq!(resp.status, 400, "{target}");
            assert!(resp.body.contains("expected json"), "{}", resp.body);
        }
    }

    #[test]
    fn rows_endpoint_reports_totals_and_caps_output() {
        let e = engine();
        let resp = get(&e, "/rows?app=hydro&limit=3");
        let v = JsonValue::parse(&resp.body).unwrap();
        assert_eq!(v.get("count").unwrap().as_u64(), Some(24));
        assert_eq!(v.get("returned").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("rows").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("filter").unwrap().get("app").unwrap().as_str(),
            Some("hydro")
        );
    }

    #[test]
    fn errors_are_structured() {
        let e = engine();
        assert_eq!(get(&e, "/nope").status, 404);
        assert_eq!(get(&e, "/best?metric=bogus").status, 400);
        assert_eq!(get(&e, "/best?k=0").status, 400);
        assert_eq!(get(&e, "/best?k=zillion").status, 400);
        assert_eq!(get(&e, "/rows?apps=hydro").status, 400);
        assert_eq!(get(&e, "/pareto?x=time_ns&y=time_ns").status, 400);
        // /quit is 404 unless explicitly enabled.
        assert_eq!(get(&e, "/quit").status, 404);
        let req = parse_request(b"GET /quit HTTP/1.1\r\n\r\n").unwrap();
        let (resp, quit) = respond(&e, true, &req);
        assert_eq!((resp.status, quit), (200, true));
        let body = JsonValue::parse(&get(&e, "/nope").body).unwrap();
        assert_eq!(body.get("status").unwrap().as_u64(), Some(404));
        assert!(body.get("error").is_some());
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let e = engine();
        let req = parse_request(b"POST /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(respond(&e, false, &req).0.status, 405);
    }

    #[test]
    fn healthz_surfaces_the_dist_beacon_when_present() {
        // In-memory engine: the dist_* fields are absent, not zeroed.
        let body = JsonValue::parse(&get(&engine(), "/healthz").body).unwrap();
        assert!(body.get("dist_workers").is_none());

        let dir = std::env::temp_dir().join(format!("musa-serve-api-dist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let now = std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .unwrap()
            .as_secs();
        std::fs::write(
            dir.join(musa_store::DIST_STATUS_FILE),
            format!(
                "{{\"addr\":\"127.0.0.1:9\",\"connected\":3,\"draining\":false,\
                 \"updated_unix\":{now}}}"
            ),
        )
        .unwrap();
        let e = QueryEngine::open(&dir).unwrap();
        let body = JsonValue::parse(&get(&e, "/healthz").body).unwrap();
        assert_eq!(body.get("dist_workers").unwrap().as_u64(), Some(3));
        assert_eq!(body.get("dist_draining"), Some(&JsonValue::Bool(false)));
        assert_eq!(body.get("dist_stale"), Some(&JsonValue::Bool(false)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn healthz_surfaces_the_doctor_beacon_when_present() {
        // In-memory engine: the doctor_* fields are absent.
        let body = JsonValue::parse(&get(&engine(), "/healthz").body).unwrap();
        assert!(body.get("doctor_severity").is_none());

        let dir =
            std::env::temp_dir().join(format!("musa-serve-api-doctor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(musa_store::DOCTOR_STATUS_FILE),
            "{\"severity\":\"degraded\",\"exit_code\":1,\"repaired\":true,\
             \"checked_unix\":1754700000}",
        )
        .unwrap();
        let e = QueryEngine::open(&dir).unwrap();
        let body = JsonValue::parse(&get(&e, "/healthz").body).unwrap();
        assert_eq!(
            body.get("doctor_severity").unwrap().as_str(),
            Some("degraded")
        );
        assert_eq!(body.get("doctor_repaired"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            body.get("doctor_checked_unix").unwrap().as_u64(),
            Some(1754700000)
        );

        // Garbage beacons are ignored, not surfaced.
        std::fs::write(dir.join(musa_store::DOCTOR_STATUS_FILE), b"not json").unwrap();
        let e = QueryEngine::open(&dir).unwrap();
        let body = JsonValue::parse(&get(&e, "/healthz").body).unwrap();
        assert!(body.get("doctor_severity").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
