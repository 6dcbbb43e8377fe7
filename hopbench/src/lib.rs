//! The hopspan benchmark harness: exact latency samples, open-loop
//! schedule accounting, in-memory spans, a wire client, child-process
//! control, seeded inputs and the result line.

pub mod client;
pub mod inputs;
pub mod layers;
pub mod openloop;
pub mod poll;
pub mod proc;
pub mod report;
pub mod stats;
pub mod trace;
