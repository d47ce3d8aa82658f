//! Empty on purpose: `rayon` is declared in the workspace manifests but no
//! `.rs` file uses it (ROADMAP item 3), so the stand-in only has to resolve.
