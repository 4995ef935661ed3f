// Fixture for D9: rows sized by their frame's byte length stay silent,
// down to a single row, and so do other sizes charged next to them.
#ifndef WIRE_GOOD_GDH_MESSAGES_H_
#define WIRE_GOOD_GDH_MESSAGES_H_

struct GatherReply {
  RowFrame rows;

  int64_t WireBits() const { return 256 + FrameBits(rows); }
};

struct WriteRequest {
  RowFrame row;
  std::vector<std::shared_ptr<const Expr>> assignments;

  int64_t WireBits() const {
    int64_t bits = 256 + FrameBits(row);
    for (const auto& e : assignments) bits += e->TreeSize() * 128;
    return bits;
  }
};

#endif  // WIRE_GOOD_GDH_MESSAGES_H_
