//! The compact edge layout: every per-edge record is 16 bytes (two `u32` ids and an
//! `f64`), and input whose vertex count a `u32` id cannot hold is refused with a typed
//! error rather than truncated.

use std::mem::size_of;

use spectral_sparsify::graph::csr::Neighbor;
use spectral_sparsify::graph::{io, Edge, Graph, GraphError};
use spectral_sparsify::spanner::baswana_sen::Slot;
use spectral_sparsify::stream::store::EDGE_BYTES;
use spectral_sparsify::stream::{StreamConfig, StreamSparsifier};

#[test]
fn edge_records_are_sixteen_bytes() {
    assert_eq!(size_of::<Edge>(), 16);
    assert_eq!(size_of::<Neighbor>(), 16);
    assert_eq!(size_of::<Slot>(), 16);
    assert_eq!(EDGE_BYTES, 16);
}

/// `n = 2³³` with one edge: every entry point that validates edges returns
/// `TooManyVertices`. None of them allocates anything `n`-sized first.
#[cfg(target_pointer_width = "64")]
#[test]
fn vertex_counts_beyond_u32_ids_are_typed_errors() {
    let n = 1usize << 33;
    let too_many = Some(GraphError::TooManyVertices { n });

    assert_eq!(Graph::validate_edge(n, 0, 1, 1.0).err(), too_many);
    assert_eq!(
        Graph::with_capacity(n, 1).add_edge(0, 1, 1.0).err(),
        too_many
    );
    let one_edge = vec![Edge::new(0, 1, 1.0)];
    assert_eq!(Graph::from_edges(n, one_edge.clone()).err(), too_many);
    assert_eq!(Graph::from_tuples(n, [(0, 1, 1.0)]).err(), too_many);
    assert_eq!(io::from_str(&format!("{n} 1\n0 1\n")).err(), too_many);
    assert_eq!(io::BinEdgeWriter::new(Vec::new(), n, 1).err(), too_many);

    let mut stream = StreamSparsifier::new(n, StreamConfig::new(0.5, 1_000));
    assert_eq!(stream.ingest_batch(&one_edge).err(), too_many);

    // The largest vertex count u32 ids can name still validates.
    let max = u32::MAX as usize;
    assert_eq!(Graph::validate_edge(max, max - 1, 0, 1.0), Ok(()));
    assert_eq!(Edge::new(max - 1, 0, 1.0).u(), max - 1);
}
