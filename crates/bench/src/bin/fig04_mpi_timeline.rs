//! Figure 4: LULESH rank timeline — "significant unnecessary time is
//! spent in MPI barriers due to load imbalance".

use musa_apps::{generate, AppId};
use musa_bench::gen_params;
use musa_net::{render_rank_timeline, replay_with_timelines, BurstTimer, NetworkParams};

fn main() {
    let trace = generate(AppId::Lulesh, &gen_params());
    let (res, timelines) = replay_with_timelines(
        &trace,
        &NetworkParams::marenostrum4(),
        &mut BurstTimer { cores: 64 },
    );

    println!("== Fig. 4: LULESH MPI/compute timeline (first 24 ranks) ==");
    println!("('#' compute, '.' blocked at sync, '-' transfer)\n");
    print!(
        "{}",
        render_rank_timeline(res.total_ns, &timelines, 24, 100)
    );

    println!(
        "\nmean MPI fraction: {:.1} %  (wait share of MPI: {:.0} %)",
        res.mpi_fraction() * 100.0,
        res.wait_share_of_mpi() * 100.0
    );
    println!("paper: message passing is minimal; barrier waits from rank");
    println!("load imbalance dominate the MPI time.");
    assert!(
        res.wait_share_of_mpi() > 0.5,
        "waits must dominate LULESH MPI time"
    );
}
