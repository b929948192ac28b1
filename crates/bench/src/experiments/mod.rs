//! One module per table/figure, plus ablations.

pub mod ablations;
pub mod fig10;
pub mod fig11;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;

pub use ablations::{
    ablation_bitvector, ablation_buffer, ablation_counters, ablation_dpsample, ablation_models,
    ablation_sensitivity, ablation_zones,
};
pub use fig10::run_fig10;
pub use fig11::run_fig11;
pub use fig6::run_fig6;
pub use fig7::run_fig7;
pub use fig8::run_fig8;
pub use fig9::run_fig9;
pub use table1::run_table1;
