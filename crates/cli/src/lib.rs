#![warn(missing_docs)]

//! # dnc-cli — the `dnc` command
//!
//! A front end over the whole workspace: describe a network in a small
//! text format, then analyze it, size its buffers, check admission, or
//! simulate it.
//!
//! ```sh
//! dnc check    network.dnc              # structure, utilizations, pairing
//! dnc analyze  network.dnc --algo all   # delay bounds per connection
//! dnc backlog  network.dnc              # buffer sizing per server
//! dnc simulate network.dnc --ticks 8192 # adversarial simulation vs bounds
//! dnc figure 5                          # regenerate the paper's Figure 5
//! dnc help                              # every command, from the registry
//! ```
//!
//! Every command — the analyses, `serve`, `bench`, and every harness of
//! `dnc-bench` — is one entry of the registry in [`commands`].
//!
//! ## The `.dnc` format
//!
//! Line-oriented; `#` starts a comment. Rationals are `3`, `1/4`, `0.25`.
//!
//! ```text
//! # servers: name, service rate (cells/tick), discipline
//! # (fifo | sp = static priority | gps | edf)
//! server L0 rate 1 fifo
//! server L1 rate 1 fifo
//! server core rate 2 sp
//! server fair rate 2 gps
//! server dl   rate 1 edf
//!
//! # flows: route through declared servers, one or more token buckets,
//! # optional peak cap, priority, GPS reservation (`reserve`), EDF local
//! # deadline (`ldl`), and end-to-end deadline
//! flow conn0 route L0 L1 core bucket 1 1/4 peak 1 prio 1 deadline 20
//! flow fairf route L0 fair bucket 2 1/8 reserve 1/2
//! flow edff  route L0 dl   bucket 2 1/8 ldl 6 deadline 10
//! flow cross route L0 bucket 2 1/8
//! ```
//!
//! [`parse::parse_spec`] turns the text into a [`parse::NetworkSpec`];
//! [`commands::run`] executes a command line and returns the report text
//! (the `dnc` binary just prints it).

pub mod commands;
pub mod parse;
pub mod serve;
