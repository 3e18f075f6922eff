//! One module per paper artifact. Each exposes a `run` returning
//! structured results and a `print` emitting the paper-style rows.

pub mod campaign;
pub mod common;
pub mod fig45;
pub mod fig6;
pub mod sweep;
pub mod table1;
pub mod table2;
