// Fixture for D9: wire messages sized by row byte sizes, the boxed-row
// model the column frame replaced. Both loop forms are flagged, and so is
// a single row's ByteSize().
#ifndef WIRE_BAD_GDH_MESSAGES_H_
#define WIRE_BAD_GDH_MESSAGES_H_

struct GatherReply {
  std::vector<Tuple> tuples;

  int64_t WireBits() const {
    int64_t bytes = 16;
    for (const Tuple& t : tuples) bytes += t.ByteSize();
    return 256 + bytes * 8;
  }
};

struct BatchFrame {
  std::vector<Tuple> tuples;

  int64_t WireBits() const {
    int64_t bits = 256;
    for (const Tuple& t : tuples) {
      bits += static_cast<int64_t>(t.ByteSize()) * 8;
    }
    return bits;
  }
};

struct WriteRequest {
  Tuple tuple;

  int64_t WireBits() const {
    return 256 + static_cast<int64_t>(tuple.ByteSize()) * 8;
  }
};

#endif  // WIRE_BAD_GDH_MESSAGES_H_
