"""Wire-size model.

The simulation never materializes byte buffers; instead every packet
reports its wire size through a model of the (post-1.8) Minecraft
protocol framing:

* every packet is framed as ``VarInt(length) + VarInt(packet id) + body``;
* chunk data is sent deflate-compressed; we model the compressed size as
  a fixed per-section header plus an empirical per-block compression
  ratio for procedurally generated chunks (dominated by long runs of the
  same block id).

Keeping this a *model* rather than real serialization is the substitution
documented in DESIGN.md: bandwidth numbers depend only on which packets
are sent and how large they are, both of which this module preserves.
"""

from __future__ import annotations

#: Framing: length VarInt (modelled as 2 bytes for typical packets) plus
#: packet-id VarInt (1 byte).
PACKET_FRAME_BYTES = 3

#: Empirical deflate ratio for generated chunk sections (mostly runs of
#: stone/air). Measured ratios on vanilla servers are 0.03-0.08.
CHUNK_COMPRESSION_RATIO = 0.05

#: Fixed cost per chunk-data packet: section bitmask, heightmap NBT,
#: biome array, light masks.
CHUNK_FIXED_BYTES = 256

#: Uncompressed bytes per block in a chunk section (block state id in the
#: global palette: 2 bytes).
BYTES_PER_BLOCK = 2


def varint_size(value: int) -> int:
    """Bytes a protocol VarInt needs for ``value`` (non-negative)."""
    if 0 <= value < 0x80:
        return 1
    if value < 0:
        raise ValueError(f"VarInt is unsigned in this model, got {value}")
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


def packet_overhead() -> int:
    """Framing bytes added to every packet body."""
    return PACKET_FRAME_BYTES


def compressed_chunk_bytes(total_blocks: int, non_air_blocks: int) -> int:
    """Modelled compressed size of a full chunk-data packet body.

    Air compresses to almost nothing; non-air block data compresses at
    :data:`CHUNK_COMPRESSION_RATIO`. The result is dominated by how much
    of the chunk is solid, which matches deflate behaviour on real chunk
    payloads.
    """
    if non_air_blocks > total_blocks:
        raise ValueError(
            f"non_air_blocks={non_air_blocks} exceeds total_blocks={total_blocks}"
        )
    solid_bytes = non_air_blocks * BYTES_PER_BLOCK * CHUNK_COMPRESSION_RATIO
    air_bytes = (total_blocks - non_air_blocks) * BYTES_PER_BLOCK * 0.002
    return CHUNK_FIXED_BYTES + int(solid_bytes + air_bytes)
