//! Helpers shared by the integration tests.

use tin::prelude::*;

/// Every policy configuration the factory can build, including the
/// scope-limited, windowed, budgeted and path-tracking families.
pub fn all_configs(num_vertices: usize) -> Vec<PolicyConfig> {
    let mut configs: Vec<PolicyConfig> = SelectionPolicy::all()
        .into_iter()
        .map(PolicyConfig::Plain)
        .collect();
    configs.push(PolicyConfig::Selective {
        tracked: vec![VertexId::new(0), VertexId::new(3)],
    });
    configs.push(PolicyConfig::Grouped {
        num_groups: 3,
        group_of: (0..num_vertices).map(|v| (v % 3) as u32).collect(),
    });
    configs.push(PolicyConfig::Windowed { window: 5 });
    configs.push(PolicyConfig::TimeWindowed { duration: 7.5 });
    configs.push(PolicyConfig::budget(3));
    configs.push(PolicyConfig::PathTracking { lifo: false });
    configs.push(PolicyConfig::GenerationPaths { most_recent: true });
    configs
}
