//! Baseline routing comparison (ours, beyond the paper): every router in
//! the workspace on the identical reduced-scale workload — the
//! delivery-vs-traffic trade-off landscape the thesis surveys in §1.1/§1.2.
//!
//! Epidemic is the MDR ceiling and traffic worst case; Direct Delivery is
//! the traffic floor; ChitChat and the mechanism sit in between; CEDO
//! serves explicitly requested keywords only. The five classic routers run
//! as routing backends with the overlay off.

use dtn_bench::{figures, Cli};

fn main() {
    let cli = Cli::parse();
    figures::baselines::run(&cli);
    cli.enforce_expect_warm();
}
