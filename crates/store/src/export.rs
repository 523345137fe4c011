//! File exports of campaigns (CSV and JSON).
//!
//! The CSV row format itself lives in [`musa_core::report::campaign_csv`]
//! so every consumer shares one tested implementation; this module only
//! adds the file plumbing the `dse` binary used to hand-roll.
//!
//! Exports are written through [`crate::integrity::atomic_write`]: a
//! crash (or an injected `export.write` fault) mid-export leaves the
//! previous file intact, never a truncated one a plotting script would
//! silently mis-read.

use std::path::Path;

use musa_core::report::campaign_csv;
use musa_core::Campaign;

use crate::integrity::atomic_write;
use crate::store::CampaignStore;

/// Write a campaign as CSV, atomically. Returns the number of data
/// rows written.
pub fn write_csv(campaign: &Campaign, path: impl AsRef<Path>) -> std::io::Result<usize> {
    atomic_write(
        path.as_ref(),
        campaign_csv(campaign).as_bytes(),
        "export.write",
    )?;
    Ok(campaign.results.len())
}

/// Write a campaign as a single JSON document (the `Campaign` JSON
/// encoding, readable back with `Campaign::from_json`), atomically.
pub fn write_json(campaign: &Campaign, path: impl AsRef<Path>) -> std::io::Result<usize> {
    atomic_write(path.as_ref(), campaign.to_json().as_bytes(), "export.write")?;
    Ok(campaign.results.len())
}

impl CampaignStore {
    /// Export every stored row as CSV (see [`CampaignStore::campaign`]
    /// for the ordering and multi-scale caveat).
    pub fn export_csv(&self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        write_csv(&self.campaign(), path)
    }

    /// Export every stored row as a `Campaign` JSON document.
    pub fn export_json(&self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        write_json(&self.campaign(), path)
    }
}
