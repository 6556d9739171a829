//! Hot-path micro-benchmarks for the zero-allocation work (DESIGN.md
//! §12): the pooled/by-reference variants against their allocating
//! ancestors, plus the timer-wheel event queue under a churn workload.
//!
//! Full-campaign timings come from the perf benchmark (`make perf`, see
//! `perfbench/README.md`) and the zero-allocation contract is gated by
//! the `integration_alloc` test (`make alloc`); these isolate where the
//! win comes from.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dohperf_core::testbed::{format_subdomain, SUBDOMAIN_BUF_LEN};
use dohperf_dns::prelude::*;
use dohperf_http::codec::{Method, Request};
use dohperf_http::luminati::TunTimeline;
use dohperf_netsim::engine::Simulator;
use dohperf_netsim::time::SimDuration;

fn bench_dns_encode(c: &mut Criterion) {
    let msg = Message::query(
        0x42,
        DnsName::parse("0123456789abcdef.a.com").unwrap(),
        RecordType::A,
    );
    c.bench_function("dns_encode_alloc", |b| {
        b.iter(|| black_box(&msg).encode().unwrap())
    });
    let mut buf = bytes::BytesMut::with_capacity(512);
    c.bench_function("dns_encode_into_reused", |b| {
        b.iter(|| {
            black_box(&msg).encode_into(&mut buf).unwrap();
            black_box(buf.len())
        })
    });
    c.bench_function("dns_encode_pooled", |b| {
        b.iter(|| black_box(&msg).encode_pooled().unwrap().len())
    });
}

fn bench_http_encode(c: &mut Criterion) {
    let req = Request::new(Method::Get, "/dns-query?dns=AAAA").with_body(vec![0u8; 64]);
    c.bench_function("http_encode_alloc", |b| {
        b.iter(|| black_box(&req).encode().len())
    });
    let mut buf = bytes::BytesMut::with_capacity(512);
    c.bench_function("http_encode_into_reused", |b| {
        b.iter(|| {
            black_box(&req).encode_into(&mut buf);
            black_box(buf.len())
        })
    });
}

fn bench_header_scratch(c: &mut Criterion) {
    let t = TunTimeline {
        dns: SimDuration::from_millis_f64(12.345),
        connect: SimDuration::from_millis_f64(33.1),
    };
    c.bench_function("luminati_header_alloc", |b| {
        b.iter(|| black_box(&t).to_header_value().len())
    });
    let mut scratch = String::with_capacity(64);
    c.bench_function("luminati_header_scratch", |b| {
        b.iter(|| {
            black_box(&t).write_header_value(&mut scratch);
            black_box(scratch.len())
        })
    });
}

fn bench_subdomain(c: &mut Criterion) {
    c.bench_function("subdomain_format_alloc", |b| {
        let mut id = 0u64;
        b.iter(|| {
            id = id.wrapping_add(0x9e37_79b9_7f4a_7c15);
            black_box(format!("{id:016x}.a.com").len())
        })
    });
    c.bench_function("subdomain_format_stack", |b| {
        let mut id = 0u64;
        let mut buf = [0u8; SUBDOMAIN_BUF_LEN];
        b.iter(|| {
            id = id.wrapping_add(0x9e37_79b9_7f4a_7c15);
            black_box(format_subdomain(id, &mut buf).len())
        })
    });
}

/// Timer-wheel churn: the schedule/advance/step cadence a campaign
/// drives, far more near-future inserts than pops-in-order.
fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_churn_1k", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(7);
            for i in 0..1_000u64 {
                sim.schedule_in(SimDuration::from_nanos((i * 37) % 4096 + 1), |_, _| {});
                if i % 4 == 0 {
                    let deadline = sim.now() + SimDuration::from_nanos(64);
                    sim.run_until(deadline);
                }
            }
            sim.run_to_completion();
            black_box(sim.now())
        })
    });
}

criterion_group!(
    benches,
    bench_dns_encode,
    bench_http_encode,
    bench_header_scratch,
    bench_subdomain,
    bench_event_queue
);
criterion_main!(benches);
