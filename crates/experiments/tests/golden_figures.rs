//! Golden figures: every run-averaged CSV the `repro` figures, claims and
//! ablations write, pinned by digest.
//!
//! The digests were captured with every run folded on one worker thread,
//! where the fold order is the run order. The harness folds runs in run
//! order on any number of workers, so they hold on every core count: a
//! changed growth loop, seed, averaging order or CSV format shows up here
//! before it shows up in `results/`.

use domus_experiments::{ablations, claims, fig4, fig5, fig6, fig7, fig8, fig9, Ctx};
use domus_hashspace::hasher::Fnv1aHasher;

#[test]
fn run_averaged_csvs_match_the_golden_digests() {
    let dir = std::env::temp_dir().join(format!("domus-golden-figures-{}", std::process::id()));
    // n = 96 keeps two diagonal values (8, 16) and sits on no 4·v boundary.
    let mut ctx = Ctx::quick(&dir);
    ctx.runs = 3;
    ctx.n = 96;
    for run in [fig4::run, fig5::run, fig6::run, fig7::run, fig8::run, fig9::run] {
        run(&ctx);
    }
    claims::claim_pv(&ctx);
    claims::claim_8k(&ctx);
    ablations::abl_container(&ctx);

    let csvs = [
        "fig4_sigma_qv_diagonal",
        "fig5_theta",
        "fig6_sigma_qv_vmin_sweep",
        "fig7_groups",
        "fig8_sigma_qg",
        "fig9_ch_comparison",
        "claim_pv_grid",
        "claim_8k_stability",
        "abl_container",
    ];
    let digests: Vec<(&str, u64)> = csvs
        .iter()
        .map(|&name| {
            let path = dir.join(format!("{name}.csv"));
            let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
            (name, Fnv1aHasher::raw(&bytes))
        })
        .collect();
    std::fs::remove_dir_all(&dir).expect("remove the output directory");
    assert_eq!(
        digests,
        [
            ("fig4_sigma_qv_diagonal", 0x92e5_33bf_31eb_a327),
            ("fig5_theta", 0xab11_4d68_63f0_31fc),
            ("fig6_sigma_qv_vmin_sweep", 0x3a08_5bf7_d50f_f15c),
            ("fig7_groups", 0x11b7_0235_bd1e_cd02),
            ("fig8_sigma_qg", 0x5e7f_d61b_545f_cad5),
            ("fig9_ch_comparison", 0xe30d_0255_a354_db85),
            ("claim_pv_grid", 0xc1fb_d743_83c2_d11e),
            ("claim_8k_stability", 0x6148_b757_c632_f7a3),
            ("abl_container", 0x03ba_0522_1152_fb30),
        ]
    );
}
