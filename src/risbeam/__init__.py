"""RIS-assisted MIMO downlink: channels, codebooks, beam training, and
alternating rate optimization, plus a seeded experiment harness."""

__version__ = "0.1.0"
